(* The three workloads, timed and traced.  See workloads.mli. *)

type env = { seed : int; seconds : int; out_dir : string; soimap : string }

type result = {
  attempted : int;
  failed : int;
  errors : string list;
  metrics : (string * float) list;
  lines : string list;
}

let clock () = Obs.Clock.now_ns ()
let since t0 = Obs.Clock.ns_to_s (Int64.sub (clock ()) t0)
let ms_since t0 = Obs.Clock.ns_to_ms (Int64.sub (clock ()) t0)

(* ---------------- stream lengths ---------------- *)

(* Fixed per [--seconds], never by elapsed time: one second of stream is
   the work a 2-core x86-64 container did in about one second when the
   benchmark was defined — remap_eco's in about one and a half, as its
   runs were the noisiest and so carry more work. *)
let compile_pass_s = 3.0
let serve_rate = 250
let remap_rate = 12
let setup_attempts = 3

let compile_passes seconds =
  max 2 (int_of_float (Float.round (float_of_int seconds /. compile_pass_s)))

let serve_requests seconds = max 24 (seconds * serve_rate)
let remap_requests seconds = max 8 (seconds * remap_rate)

(* ---------------- shared helpers ---------------- *)

(* CPU time the host took from this machine (the [steal] column of
   /proc/stat, all CPUs, in seconds), to read noisy timings against. *)
let steal_s () =
  try
    let ic = open_in "/proc/stat" in
    let line = Fun.protect (fun () -> input_line ic) ~finally:(fun () -> close_in ic) in
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
        Some (float_of_string steal /. 100.)
    | _ -> None
  with Sys_error _ | End_of_file | Failure _ -> None

(* [f ()], and a detail line with the host steal it suffered. *)
let with_steal f =
  let s0 = steal_s () and t0 = clock () in
  let v = f () in
  let line =
    match (s0, steal_s ()) with
    | Some a, Some b ->
        Printf.sprintf "host steal during the timed phase: %.2f s over %.2f s" (b -. a) (since t0)
    | _ -> "host steal during the timed phase: unknown"
  in
  (v, line)

(* Correctness problems are collected, not raised: the run finishes,
   reports what it saw, and the command exits non-zero. *)
let problems : string list ref = ref []
let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

let take_problems () =
  let p = List.rev !problems in
  problems := [];
  p

let median_setup f =
  let runs = List.init setup_attempts (fun i -> f ~last:(i = setup_attempts - 1)) in
  let times = List.map fst runs in
  let kept = List.filter_map snd runs in
  (Stats.median (Array.of_list times), times, List.hd kept)

(* The nine end-to-end metrics of a timed run. *)
let end_to_end ~setup_s ~rates ~ok ~n ~lat ~quality:(t, d, l) ~rss =
  [
    ("setup_s", setup_s);
    ("nets_per_s", Stats.median rates);
    ("latency_ms_p50", Stats.median lat);
    ("latency_ms_tail", (Stats.tail lat).Stats.value);
    ("success_ratio", float_of_int ok /. float_of_int n);
    ("transistors_total", float_of_int t);
    ("discharge_total", float_of_int d);
    ("levels_total", float_of_int l);
    ("peak_rss_mb", rss);
  ]

let tail_line lat = "latency tail = " ^ Stats.tail_label (Stats.tail lat)

let add3 (a, b, c) (k : Domino.Circuit.counts) = (a + k.t_total, b + k.t_disch, c + k.levels)

let json_of_line line =
  match Obs.Json.parse line with Ok j -> Some j | Error _ -> None

(* Closed-loop drive: connection [c] sends requests [c], [c + k], ... and
   waits for each answer before the next.  Returns per-request latency
   (ms), response line, and start/end times (s from the drive's start). *)
let drive conns ~n frame_of =
  let lat = Array.make n 0. and resp = Array.make n "" in
  let t_start = Array.make n 0. and t_end = Array.make n 0. in
  let k = Array.length conns in
  let t0 = clock () in
  let worker c =
    let i = ref c in
    while !i < n do
      let f = frame_of !i in
      let t = clock () in
      (match Service.Client.send_line conns.(c) f with
      | Ok () -> (
          match Service.Client.recv_line conns.(c) with
          | Ok l -> resp.(!i) <- l
          | Error msg -> resp.(!i) <- "!" ^ msg)
      | Error msg -> resp.(!i) <- "!" ^ msg);
      lat.(!i) <- ms_since t;
      t_start.(!i) <- Obs.Clock.ns_to_s (Int64.sub t t0);
      t_end.(!i) <- since t0;
      i := !i + k
    done
  in
  let threads = Array.init k (fun c -> Thread.create worker c) in
  Array.iter Thread.join threads;
  (lat, resp, t_start, t_end)

(* Throughput as the median over chunks of the stream — requests of
   chunk [j] are those with [chunk_of i = j] — of chunk requests over
   the chunk's span, so a burst of host noise moves one chunk, not the
   figure. *)
let chunk_rates ~chunks ~chunk_of t_start t_end =
  let lo = Array.make chunks infinity and hi = Array.make chunks 0. and cnt = Array.make chunks 0 in
  Array.iteri
    (fun i s ->
      let j = chunk_of i in
      lo.(j) <- Float.min lo.(j) s;
      hi.(j) <- Float.max hi.(j) t_end.(i);
      cnt.(j) <- cnt.(j) + 1)
    t_start;
  Array.init chunks (fun j -> float_of_int cnt.(j) /. (hi.(j) -. lo.(j)))

let rates_line rates =
  "chunk rates (1/s): " ^ String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.2f") rates))

(* The per-request judgement of a daemon response against the verified
   in-process reference. *)
let judge ~what ~(want : Domino.Circuit.counts option) line =
  match json_of_line line with
  | None ->
      problem "%s: unreadable response %S" what
        (String.sub line 0 (min 120 (String.length line)));
      None
  | Some j -> (
      match (Service.Protocol.response_status j, Verify.counts_of_response j, want) with
      | Ok "ok", Some got, Some want when got = want -> Some j
      | Ok "ok", Some got, Some want ->
          problem "%s: daemon %s, verified mapping %s" what (Verify.pp_counts got)
            (Verify.pp_counts want);
          None
      | Ok "ok", _, None ->
          problem "%s: no verified reference" what;
          None
      | Ok st, _, _ ->
          problem "%s: status %s" what st;
          None
      | Error msg, _, _ ->
          problem "%s: %s" what msg;
          None)

let float_member k j = Option.bind (Obs.Json.member k j) Obs.Json.to_float

(* A cold, memo-free in-process mapping of a netlist that passed the
   correctness gate, or [None]. *)
let reference ~what ?source text =
  match
    let net = Blif.parse_string text in
    let m = Layers.map_net ~req:(-1) Traffic.soi_area ~rewrite:0 net in
    (m, Option.value source ~default:net)
  with
  | m, source ->
      if Verify.circuit m.Layers.circuit ~source ~unate:m.Layers.unate then
        Some m.Layers.counts
      else begin
        problem "%s: in-process mapping fails the equivalence gate" what;
        None
      end
  | exception e ->
      problem "%s: %s" what (Printexc.to_string e);
      None

(* The netlist a request frame carries, as the daemon decodes it. *)
let payload_of_frame frame =
  match Service.Protocol.parse_request frame with
  | Ok { Service.Protocol.body = Service.Protocol.Map p; _ } -> p.payload
  | Ok { Service.Protocol.body = Service.Protocol.Remap { params; _ }; _ } -> params.payload
  | Ok _ -> failwith "not a mapping request"
  | Error msg -> failwith msg

let ledger_and_stop d conns ~expected =
  let ledger =
    match Daemon.ledger conns.(0) with
    | Ok l ->
        List.iter (fun e -> problem "%s" e) (Daemon.check_ledger l ~expected);
        l
    | Error msg ->
        problem "%s" msg;
        []
  in
  let rss = Daemon.peak_rss_mb (Daemon.pid d) in
  Array.iter Service.Client.close conns;
  (match Daemon.stop d with Ok () -> () | Error msg -> problem "%s" msg);
  (ledger, rss)

let start_daemon env ~jobs ~dispatchers ~conns =
  match Daemon.start ~exe:env.soimap ~dir:env.out_dir ~jobs ~dispatchers with
  | Ok d -> (d, Array.init conns (fun _ -> Daemon.connect d))
  | Error msg -> failwith ("daemon: " ^ msg)

let discard (d, conns) =
  Array.iter Service.Client.close conns;
  match Daemon.stop d with Ok () -> () | Error msg -> problem "%s" msg

(* ---------------- traced replay ---------------- *)

type traced = { untraced_s : float; traced_s : float; gc_minor : float; gc_major : int }

(* Run [warm] then [stream] twice in-process — recording off, then on
   for [stream] only — and keep the first [stream]'s value and the
   second's spans and counts. *)
let traced_replay ~requests ~warm stream =
  Spans.set_enabled false;
  warm ();
  let t0 = clock () in
  let v = stream () in
  let untraced_s = since t0 in
  warm ();
  Layers.reset ();
  Spans.reset ();
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  Spans.set_enabled true;
  let g0 = Gc.quick_stat () in
  let t1 = clock () in
  ignore (stream ());
  let traced_s = since t1 in
  let g1 = Gc.quick_stat () in
  Spans.set_enabled false;
  Obs.Metrics.set_enabled false;
  ( v,
    {
      untraced_s;
      traced_s;
      gc_minor = (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6 /. float_of_int requests;
      gc_major = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

let layer_metrics tr =
  let s = Spans.summarise () in
  let a = Layers.acc in
  let per n d = if d = 0 then 0. else float_of_int n /. float_of_int d in
  let snap = Obs.Metrics.snapshot () in
  let metric k = Option.value (List.assoc_opt k snap) ~default:0 in
  ( s,
    [
      ("blif.parse_ms", Spans.mean_self_ms s "blif.parse");
      ("protocol.parse_ms", Spans.mean_self_ms s "protocol.parse");
      ("protocol.render_ms", Spans.mean_self_ms s "protocol.render");
      ("unate.prepare_ms", Spans.mean_self_ms s "unate.prepare");
      ("mapper.engine_ms", Spans.mean_self_ms s "mapper.engine");
      ("mapper.engine_memo_ms", Spans.mean_self_ms s "mapper.engine_memo");
      ("mapper.combinations", per a.combinations a.engine_calls);
      ("mapper.tuples_kept", per a.tuples_kept a.engine_calls);
      ("arena.filter_ratio", per (metric "arena.filtered") (metric "mapper.combinations"));
      ("remap.fingerprint_ms", Spans.mean_self_ms s "remap.fingerprint");
      ("remap.remap_ms", Spans.mean_self_ms s "remap.remap");
      ("remap.dirty_ratio", per a.remap_dirty a.remap_nodes);
      ("remap.baseline_misses", float_of_int a.baseline_misses);
      ("postprocess.ms", Spans.mean_self_ms s "postprocess");
      ("rewrite.portfolio_ms", Spans.mean_self_ms s "rewrite.portfolio");
      ("rewrite.variants", per a.variants a.portfolios);
      ("gc.minor_mwords_per_net", tr.gc_minor);
      ("gc.major_collections", float_of_int tr.gc_major);
      ("trace.overhead_pct", 100. *. (tr.traced_s -. tr.untraced_s) /. tr.untraced_s);
    ] )

(* Per-layer figures only the daemon workloads have: request frame size,
   wire time, queue peak, and the replay memo's hits and size. *)
let daemon_layers ~frame_bytes ~n ~wire ~ledger ~hits:(h, m) memo =
  [
    ("protocol.frame_kb", float_of_int frame_bytes /. 1024. /. float_of_int n);
    ("service.wire_ms_p50", if wire = [] then 0. else Stats.median (Array.of_list wire));
    ( "service.queue_peak",
      float_of_int (Option.value (List.assoc_opt "queue_peak" ledger) ~default:0) );
    ("memo.hit_ratio", float_of_int h /. float_of_int (max 1 (h + m)));
    ("memo.entries", float_of_int (Mapper.Memo.entry_count memo));
  ]

let span_lines sums tr =
  Printf.sprintf "replay: untraced %.3f s, traced %.3f s" tr.untraced_s tr.traced_s
  :: Printf.sprintf "  %-20s %8s %12s %12s %10s" "span" "calls" "total_ms" "self_ms"
       "self_ms/call"
  :: List.map
       (fun (x : Spans.summary) ->
         Printf.sprintf "  %-20s %8d %12.1f %12.1f %10.3f" x.name x.calls x.total_ms
           x.self_ms
           (x.self_ms /. float_of_int (max 1 x.calls)))
       sums

let write_trace env workload =
  let path = Printf.sprintf "%s/trace-%s-s%d.json" env.out_dir workload env.seed in
  Spans.write path;
  Printf.sprintf "spans written to %s" path

(* ---------------- compile ---------------- *)

(* The designer running soimap on a netlist: in-process, one thread,
   closed loop, no memo. *)
let compile env ~trace =
  let passes = compile_passes env.seconds in
  let setup ~last =
    let t0 = clock () in
    let c = Traffic.compile ~seed:env.seed ~passes in
    Array.iteri
      (fun i (n : Traffic.net) ->
        ignore (Layers.map_blif ~req:(-1 - i) Traffic.soi_area ~rewrite:0 n.blif))
      c.Traffic.corpus;
    (since t0, if last then Some c else None)
  in
  let setup_s, setup_runs, c =
    if trace then
      let t, c = setup ~last:true in
      (t, [ t ], Option.get c)
    else median_setup setup
  in
  let ncfg = Array.length Traffic.table_configs in
  let nkeys = Array.length c.corpus * ncfg in
  let first : Layers.mapped option array = Array.make nkeys None in
  let bad = Array.make nkeys false in
  let total = Array.length c.passes * Array.length c.pass in
  (* Quality per pass: the fixed suite part and the seeded part. *)
  let fixed_q = Array.make passes (0, 0, 0) and seeded_q = Array.make passes (0, 0, 0) in
  let run_stream () =
    Array.fill fixed_q 0 passes (0, 0, 0);
    Array.fill seeded_q 0 passes (0, 0, 0);
    let lat = Array.make total 0. in
    let rate = Array.make passes 0. in
    let i = ref 0 in
    Array.iteri
      (fun p pass ->
        let t0 = clock () in
        Array.iter
          (fun (r : Traffic.compile_req) ->
            let net = c.corpus.(r.net) in
            let key = (r.net * ncfg) + r.config in
            let t = clock () in
            (match
               Layers.map_blif ~req:!i Traffic.table_configs.(r.config) ~rewrite:r.rewrite
                 net.blif
             with
            | m -> (
                if net.fixed then fixed_q.(p) <- add3 fixed_q.(p) m.counts
                else seeded_q.(p) <- add3 seeded_q.(p) m.counts;
                match first.(key) with
                | None -> first.(key) <- Some m
                | Some m0 ->
                    if m0.counts <> m.counts then begin
                      bad.(key) <- true;
                      problem "compile %s %s: counts differ between passes" net.name
                        Traffic.table_configs.(r.config).label
                    end)
            | exception e ->
                bad.(key) <- true;
                problem "compile %s %s: %s" net.name Traffic.table_configs.(r.config).label
                  (Printexc.to_string e));
            lat.(!i) <- ms_since t;
            incr i)
          pass;
        rate.(p) <- float_of_int (Array.length pass) /. since t0)
      c.passes;
    (lat, rate)
  in
  let ((lat, rates), replay), steal_line =
    with_steal (fun () ->
        if trace then
          let v, tr = traced_replay ~requests:total ~warm:ignore run_stream in
          (v, Some tr)
        else (run_stream (), None))
  in
  let rss = Daemon.peak_rss_mb (Unix.getpid ()) in
  (* The gate: every distinct (network, flow, cost, rewrite) mapping. *)
  Array.iteri
    (fun key m ->
      match m with
      | Some (m : Layers.mapped) ->
          let net = c.corpus.(key / ncfg) in
          if not (Verify.circuit m.circuit ~source:net.source ~unate:m.unate) then begin
            bad.(key) <- true;
            problem "compile %s %s: mapped circuit is not equivalent to its source" net.name
              Traffic.table_configs.(key mod ncfg).label
          end
      | None -> bad.(key) <- true)
    first;
  let consistent q = Array.for_all (fun x -> x = q.(0)) q in
  if not (consistent fixed_q && consistent seeded_q) then
    problem "compile: quality totals differ between passes";
  let failed =
    Array.fold_left
      (fun n pass ->
        Array.fold_left
          (fun n (r : Traffic.compile_req) -> if bad.((r.net * ncfg) + r.config) then n + 1 else n)
          n pass)
      0 c.passes
  in
  let t, d, l = seeded_q.(0) in
  let stream = Array.concat (Array.to_list c.passes) in
  let slowest =
    List.filteri (fun i _ -> i < 10)
      (List.sort (fun (a, _) (b, _) -> Float.compare b a)
         (Array.to_list (Array.mapi (fun i ms -> (ms, stream.(i))) lat)))
  in
  let slow_line =
    "slowest: "
    ^ String.concat ", "
        (List.map
           (fun (ms, (r : Traffic.compile_req)) ->
             Printf.sprintf "%s %s%s %.0f ms" c.corpus.(r.net).name
               Traffic.table_configs.(r.config).label
               (if r.rewrite > 0 then " rewrite" else "")
               ms)
           slowest)
  in
  let base_lines =
    [
      Printf.sprintf "stream: %d passes x %d requests (%d nets x %d configs, %d rewritten)" passes
        (Array.length c.pass) (Array.length c.corpus) ncfg
        (Array.fold_left (fun n (r : Traffic.compile_req) -> if r.rewrite > 0 then n + 1 else n) 0 c.pass);
      tail_line lat;
      rates_line rates;
      steal_line;
      Printf.sprintf "setup runs (s): %s"
        (String.concat " " (List.map (Printf.sprintf "%.3f") setup_runs));
      Printf.sprintf "seeded part per pass: t_total=%d t_disch=%d levels=%d" t d l;
      slow_line;
    ]
  in
  let metrics, lines =
    match replay with
    | None ->
        ( end_to_end ~setup_s ~rates ~ok:(total - failed) ~n:total ~lat ~quality:fixed_q.(0) ~rss,
          base_lines )
    | Some tr ->
        let sums, layers = layer_metrics tr in
        (layers, base_lines @ span_lines sums tr @ [ write_trace env "compile" ])
  in
  { attempted = total; failed; errors = take_problems (); metrics; lines }

(* ---------------- serve_repeat ---------------- *)

let serve_jobs = 1
let serve_dispatchers = 1
let serve_conns = 2
let serve_chunks = 8

(* Memo replay of the daemon's map op on one frame. *)
let replay_map ~req memo frame =
  Spans.span "request" ~req (fun () ->
      let r = Layers.parse_request ~req frame in
      match r.Service.Protocol.body with
      | Service.Protocol.Map p ->
          let m =
            Layers.map_net ~req ~memo Traffic.soi_area ~rewrite:0
              (Layers.parse_blif ~req p.payload)
          in
          ignore (Layers.render ~req ~id:r.id m.counts);
          m.counts
      | _ -> failwith "replay: not a map request")

let serve_repeat env ~trace =
  let n = serve_requests env.seconds in
  let setup ~last =
    let t0 = clock () in
    let s = Traffic.serve_repeat ~seed:env.seed ~requests:n in
    let ((_, conns) as dc) =
      start_daemon env ~jobs:serve_jobs ~dispatchers:serve_dispatchers ~conns:serve_conns
    in
    let warm =
      Array.mapi
        (fun k net ->
          match
            Service.Client.send_line conns.(0) (Traffic.map_frame ~id:(Printf.sprintf "w%d" k) net)
          with
          | Ok () -> Result.value (Service.Client.recv_line conns.(0)) ~default:""
          | Error _ -> "")
        s.Traffic.nets
    in
    let t = since t0 in
    if last then (t, Some (s, dc, warm))
    else begin
      discard dc;
      (t, None)
    end
  in
  let setup_s, setup_runs, (s, (d, conns), warm) =
    if trace then
      let t, x = setup ~last:true in
      (t, [ t ], Option.get x)
    else median_setup setup
  in
  let (lat, resp, t_start, t_end), steal_line =
    with_steal (fun () -> drive conns ~n (Traffic.serve_frame s))
  in
  let rates =
    chunk_rates ~chunks:serve_chunks ~chunk_of:(fun i -> i * serve_chunks / n) t_start t_end
  in
  let ledger, rss = ledger_and_stop d conns ~expected:(n + Array.length warm) in
  (* The gate: one verified cold mapping per hot network; every response
     must carry exactly its counts. *)
  let refs =
    Array.map
      (fun (net : Traffic.net) -> reference ~what:("serve_repeat " ^ net.name) ~source:net.source net.blif)
      s.nets
  in
  let quality = ref (0, 0, 0) in
  Array.iteri
    (fun k line ->
      match judge ~what:("serve_repeat warm-up " ^ s.nets.(k).name) ~want:refs.(k) line with
      | Some j -> Option.iter (fun c -> quality := add3 !quality c) (Verify.counts_of_response j)
      | None -> ())
    warm;
  let wire = ref [] in
  let ok = ref 0 in
  Array.iteri
    (fun i line ->
      let k = s.reqs.(i) in
      match judge ~what:(Printf.sprintf "serve_repeat r%d %s" i s.nets.(k).name) ~want:refs.(k) line with
      | Some j ->
          incr ok;
          Option.iter (fun e -> wire := (lat.(i) -. e) :: !wire) (float_member "elapsed_ms" j)
      | None -> ())
    resp;
  let q = Traffic.zipf_quotas ~total:n s.nets in
  let base_lines =
    [
      Printf.sprintf "stream: %d map requests over %d connections, daemon --jobs %d --dispatchers %d"
        n serve_conns serve_jobs serve_dispatchers;
      "zipf quotas: "
      ^ String.concat " "
          (Array.to_list (Array.mapi (fun k (net : Traffic.net) -> Printf.sprintf "%s=%d" net.name q.(k)) s.nets));
      tail_line lat;
      rates_line rates;
      steal_line;
      Printf.sprintf "setup runs (s): %s"
        (String.concat " " (List.map (Printf.sprintf "%.3f") setup_runs));
      "daemon stats: "
      ^ String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) ledger);
    ]
  in
  let metrics, lines =
    if not trace then
      ( end_to_end ~setup_s ~rates ~ok:!ok ~n ~lat ~quality:!quality ~rss,
        base_lines )
    else begin
      let memo = ref (Mapper.Memo.create ()) in
      let hits = ref (0, 0) in
      let warm () =
        memo := Mapper.Memo.create ();
        Array.iteri
          (fun k net -> ignore (replay_map ~req:(-1 - k) !memo (Traffic.map_frame ~id:"w" net)))
          s.nets
      in
      let replay () =
        let s0 = Mapper.Memo.stats !memo in
        for i = 0 to n - 1 do
          let got = replay_map ~req:i !memo (Traffic.serve_frame s i) in
          match refs.(s.reqs.(i)) with
          | Some want when got = want -> ()
          | _ -> problem "serve_repeat replay r%d: counts differ from the verified mapping" i
        done;
        let s1 = Mapper.Memo.stats !memo in
        hits := (s1.hits - s0.hits, s1.misses - s0.misses)
      in
      let (), tr = traced_replay ~requests:n ~warm replay in
      let sums, layers = layer_metrics tr in
      let frame_bytes =
        Array.fold_left (fun a k -> a + String.length s.payloads.(k)) 0 s.reqs
      in
      ( layers @ daemon_layers ~frame_bytes ~n ~wire:!wire ~ledger ~hits:!hits !memo,
        base_lines @ span_lines sums tr @ [ write_trace env "serve_repeat" ] )
    end
  in
  { attempted = n; failed = n - !ok; errors = take_problems (); metrics; lines }

(* ---------------- remap_eco ---------------- *)

let remap_jobs = 1
let remap_dispatchers = 1

let remap_eco env ~trace =
  let n = remap_requests env.seconds in
  let warm_frame (r : Traffic.remap) c =
    Traffic.frame ~id:(Printf.sprintf "w%d" c) ~op:"map" [ ("payload", r.base_blif.(c)) ]
  in
  let setup ~last =
    let t0 = clock () in
    let r = Traffic.remap_eco ~seed:env.seed ~requests:n in
    let ((_, conns) as dc) =
      start_daemon env ~jobs:remap_jobs ~dispatchers:remap_dispatchers ~conns:1
    in
    let warm =
      Array.init (Array.length r.bases) (fun c ->
          match Service.Client.send_line conns.(0) (warm_frame r c) with
          | Ok () -> Result.value (Service.Client.recv_line conns.(0)) ~default:""
          | Error _ -> "")
    in
    let t = since t0 in
    if last then (t, Some (r, dc, warm))
    else begin
      discard dc;
      (t, None)
    end
  in
  let setup_s, setup_runs, (r, (d, conns), warm) =
    if trace then
      let t, x = setup ~last:true in
      (t, [ t ], Option.get x)
    else median_setup setup
  in
  let (lat, resp, t_start, t_end), steal_line =
    with_steal (fun () -> drive conns ~n (Traffic.remap_frame r))
  in
  let pairs = 1 + (r.steps.(n - 1).segment / 2) in
  let rates = chunk_rates ~chunks:pairs ~chunk_of:(fun i -> r.steps.(i).segment / 2) t_start t_end in
  let ledger, rss = ledger_and_stop d conns ~expected:(n + Array.length warm) in
  let quality = ref (0, 0, 0) in
  Array.iteri
    (fun c line ->
      let text = payload_of_frame (warm_frame r c) in
      let want =
        reference ~what:("remap_eco base " ^ r.bases.(c).name) ~source:r.bases.(c).source text
      in
      match judge ~what:("remap_eco warm-up " ^ r.bases.(c).name) ~want line with
      | Some j -> Option.iter (fun k -> quality := add3 !quality k) (Verify.counts_of_response j)
      | None -> ())
    warm;
  (* The gate: every edited payload, cold-mapped in-process and verified
     against its own netlist. *)
  let refs =
    Array.init n (fun i ->
        let text = payload_of_frame (Traffic.remap_frame r i) in
        reference ~what:(Printf.sprintf "remap_eco e%d (%s)" i r.steps.(i).edit) text)
  in
  let ok = ref 0 and dirty = ref 0 and nodes = ref 0 and fast = ref 0 in
  let wire = ref [] in
  Array.iteri
    (fun i line ->
      match judge ~what:(Printf.sprintf "remap_eco e%d" i) ~want:refs.(i) line with
      | Some j ->
          incr ok;
          Option.iter (fun e -> wire := (lat.(i) -. e) :: !wire) (float_member "elapsed_ms" j);
          let get k = Option.bind (Obs.Json.member "remap" j) (fun m -> Option.bind (Obs.Json.member k m) Obs.Json.to_int) in
          (match (get "dirty", get "nodes") with
          | Some dd, Some nn ->
              dirty := !dirty + dd;
              nodes := !nodes + nn;
              if dd = 0 then incr fast
          | _ -> problem "remap_eco e%d: response has no remap summary" i)
      | None -> ())
    resp;
  let switches = Array.fold_left (fun a (s : Traffic.remap_req) -> if s.switch then a + 1 else a) 0 r.steps in
  let skipped = Array.fold_left (fun a (s : Traffic.remap_req) -> a + s.skipped) 0 r.steps in
  let on_des = Array.fold_left (fun a (s : Traffic.remap_req) -> if s.chain = 0 then a + 1 else a) 0 r.steps in
  let base_lines =
    [
      Printf.sprintf
        "stream: %d remap requests (%d des, %d c7552), %d base switches, %d no-op edit seeds skipped; \
         daemon --jobs %d --dispatchers %d"
        n on_des (n - on_des) switches skipped remap_jobs remap_dispatchers;
      Printf.sprintf "daemon dirty ratio %.4f (%d dirty of %d nodes), %d zero-dirty responses"
        (float_of_int !dirty /. float_of_int (max 1 !nodes)) !dirty !nodes !fast;
      tail_line lat;
      rates_line rates;
      steal_line;
      Printf.sprintf "setup runs (s): %s"
        (String.concat " " (List.map (Printf.sprintf "%.3f") setup_runs));
      "daemon stats: "
      ^ String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) ledger);
    ]
  in
  let metrics, lines =
    if not trace then
      ( end_to_end ~setup_s ~rates ~ok:!ok ~n ~lat ~quality:!quality ~rss,
        base_lines )
    else begin
      let memo = ref (Mapper.Memo.create ()) in
      let hits = ref (0, 0) in
      let warm () =
        memo := Mapper.Memo.create ();
        Array.iteri (fun c _ -> ignore (replay_map ~req:(-1 - c) !memo (warm_frame r c))) r.bases
      in
      let replay () =
        let s0 = Mapper.Memo.stats !memo in
        let state = ref None in
        for i = 0 to n - 1 do
          let got =
            Spans.span "request" ~req:i (fun () ->
                let q = Layers.parse_request ~req:i (Traffic.remap_frame r i) in
                match q.Service.Protocol.body with
                | Service.Protocol.Remap { base; params } ->
                    let st =
                      match !state with
                      | Some (b, st) when String.equal b base -> st
                      | _ ->
                          let u0 = Layers.prepare ~req:i (Layers.parse_blif ~req:i base) in
                          let st = Layers.remap_init ~req:i ~memo:!memo Traffic.soi_area u0 in
                          state := Some (base, st);
                          st
                    in
                    let u1 = Layers.prepare ~req:i (Layers.parse_blif ~req:i params.payload) in
                    Layers.fingerprint ~req:i u1;
                    let c, info = Layers.remap ~req:i st u1 in
                    let counts = Domino.Circuit.counts (Layers.postprocess ~req:i Traffic.soi_area c) in
                    ignore
                      (Layers.render ~req:i ~remap:(info, Unate.Unetwork.node_count u1) ~id:q.id counts);
                    counts
                | _ -> failwith "replay: not a remap request")
          in
          match refs.(i) with
          | Some want when got = want -> ()
          | _ -> problem "remap_eco replay e%d: counts differ from the verified mapping" i
        done;
        let s1 = Mapper.Memo.stats !memo in
        hits := (s1.hits - s0.hits, s1.misses - s0.misses)
      in
      let (), tr = traced_replay ~requests:n ~warm replay in
      let sums, layers = layer_metrics tr in
      let frame_bytes =
        Array.fold_left
          (fun a (s : Traffic.remap_req) -> a + String.length s.payload + String.length s.base)
          0 r.steps
      in
      ( layers @ daemon_layers ~frame_bytes ~n ~wire:!wire ~ledger ~hits:!hits !memo,
        base_lines @ span_lines sums tr @ [ write_trace env "remap_eco" ] )
    end
  in
  { attempted = n; failed = n - !ok; errors = take_problems (); metrics; lines }
