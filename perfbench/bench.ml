(* The mapper benchmark's command line.

     bench.exe --workload compile|serve_repeat|remap_eco|all
               --seed N --seconds S --trace 0|1

   prints human-readable detail, one row of end-to-end metrics (or the
   per-layer table with --trace 1), and as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}.  Exits 1 when any
   output was incorrect, 2 on a usage or start-up error.  Run it from
   the repository root through perfbench/run.sh, which builds it and
   the soimap daemon first. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("nets_per_s", "1/s");
    ("latency_ms_p50", "ms");
    ("latency_ms_tail", "ms");
    ("success_ratio", "ratio");
    ("transistors_total", "count");
    ("discharge_total", "count");
    ("levels_total", "count");
    ("peak_rss_mb", "MiB");
  ]

let per_layer =
  [
    ("blif.parse_ms", "ms");
    ("protocol.parse_ms", "ms");
    ("protocol.render_ms", "ms");
    ("protocol.frame_kb", "KiB");
    ("service.wire_ms_p50", "ms");
    ("service.queue_peak", "count");
    ("unate.prepare_ms", "ms");
    ("mapper.engine_ms", "ms");
    ("mapper.engine_memo_ms", "ms");
    ("mapper.combinations", "count");
    ("mapper.tuples_kept", "count");
    ("arena.filter_ratio", "ratio");
    ("memo.hit_ratio", "ratio");
    ("memo.entries", "count");
    ("remap.fingerprint_ms", "ms");
    ("remap.remap_ms", "ms");
    ("remap.dirty_ratio", "ratio");
    ("remap.baseline_misses", "count");
    ("postprocess.ms", "ms");
    ("rewrite.portfolio_ms", "ms");
    ("rewrite.variants", "count");
    ("gc.minor_mwords_per_net", "Mwords");
    ("gc.major_collections", "count");
    ("trace.overhead_pct", "%");
  ]

let workloads =
  [
    ("compile", Perfbench.Workloads.compile);
    ("serve_repeat", Perfbench.Workloads.serve_repeat);
    ("remap_eco", Perfbench.Workloads.remap_eco);
  ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload compile|serve_repeat|remap_eco|all --seed N --seconds S \
     --trace 0|1 [--out DIR] [--soimap EXE]";
  exit 2

let rec parse_args acc = function
  | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse_args ((String.sub k 2 (String.length k - 2), v) :: acc) rest
  | [] -> acc
  | _ -> usage ()

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json ~correct ~attempted ~failed metrics =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) -> Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (num v) unit)
          metrics))

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let row_header () =
  Printf.printf "%-13s" "workload";
  List.iter (fun (n, u) -> Printf.printf " %18s" (Printf.sprintf "%s[%s]" n u)) end_to_end;
  print_newline ()

let print_row name values =
  Printf.printf "%-13s" name;
  List.iter
    (fun (n, _) ->
      match List.assoc_opt n values with
      | Some v -> Printf.printf " %18.*f" (if Float.is_integer v then 0 else 4) v
      | None -> Printf.printf " %18s" "-")
    end_to_end;
  print_newline ()

let run_one name run env ~trace =
  mkdir_p env.Perfbench.Workloads.out_dir;
  let r : Perfbench.Workloads.result = run env ~trace in
  Printf.printf "== %s (seed %d, %d s of stream%s)\n" name env.seed env.seconds
    (if trace then ", traced replay" else "");
  List.iter print_endline r.lines;
  let shown = 20 in
  List.iteri (fun i e -> if i < shown then Printf.printf "INCORRECT: %s\n" e) r.errors;
  if List.length r.errors > shown then
    Printf.printf "INCORRECT: ... %d more\n" (List.length r.errors - shown);
  let spec = if trace then per_layer else end_to_end in
  let metrics =
    List.map (fun (n, u) -> (n, u, Option.value (List.assoc_opt n r.metrics) ~default:0.)) spec
  in
  if trace then
    List.iter (fun (n, u, v) -> Printf.printf "  %-26s %14.4f %s\n" n v u) metrics
  else begin
    row_header ();
    print_row name r.metrics
  end;
  let correct = r.errors = [] && r.failed = 0 in
  print_endline (json ~correct ~attempted:r.attempted ~failed:r.failed metrics);
  exit (if correct then 0 else 1)

(* [--workload all]: each workload in its own process, so each
   process's peak RSS is its own; one summary row per workload. *)
let run_all args =
  let rows =
    List.map
      (fun (name, _) ->
        let argv =
          Array.of_list
            (Sys.executable_name
            :: List.concat_map
                 (fun (k, v) -> [ "--" ^ k; (if k = "workload" then name else v) ])
                 args)
        in
        let ic = Unix.open_process_args_in Sys.executable_name argv in
        let rec lines acc = match input_line ic with l -> lines (l :: acc) | exception End_of_file -> acc in
        let out = lines [] in
        let status = Unix.close_process_in ic in
        (match out with _ :: rest -> List.iter print_endline (List.rev rest) | [] -> ());
        let last = match out with l :: _ -> l | [] -> "" in
        (name, status, Obs.Json.parse last))
      workloads
  in
  print_endline "== summary";
  row_header ();
  let all_ok = ref true and attempted = ref 0 and failed = ref 0 and metrics = ref [] in
  List.iter
    (fun (name, status, j) ->
      match (status, j) with
      | Unix.WEXITED 0, Ok j ->
          let get k = Option.bind (Obs.Json.member k j) Obs.Json.to_int in
          attempted := !attempted + Option.value (get "attempted") ~default:0;
          failed := !failed + Option.value (get "failed") ~default:0;
          let values =
            match Obs.Json.member "metrics" j with
            | Some (Obs.Json.Obj ms) ->
                List.filter_map
                  (fun (k, m) ->
                    Option.map (fun v -> (k, v)) (Option.bind (Obs.Json.member "value" m) Obs.Json.to_float))
                  ms
            | _ -> []
          in
          List.iter
            (fun (k, v) ->
              let unit =
                Option.value ~default:""
                  (List.assoc_opt k (end_to_end @ per_layer))
              in
              metrics := (name ^ "/" ^ k, unit, v) :: !metrics)
            values;
          print_row name values
      | _ ->
          all_ok := false;
          Printf.printf "%-13s FAILED\n" name)
    rows;
  print_endline
    (json ~correct:!all_ok ~attempted:(max 1 !attempted) ~failed:!failed (List.rev !metrics));
  exit (if !all_ok then 0 else 1)

let () =
  (* A terminated run still stops its daemons: [exit] runs the at_exit
     hook that kills and reaps them. *)
  List.iter (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 2))) [ Sys.sigterm; Sys.sigint ];
  (* A daemon that dies mid-request is an error the client reports, not
     a signal that kills the benchmark. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = List.rev (parse_args [] (List.tl (Array.to_list Sys.argv))) in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let int_arg k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let seed = int_arg "seed" and seconds = int_arg "seconds" in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  if seconds < 1 then usage ();
  let env =
    {
      Perfbench.Workloads.seed;
      seconds;
      out_dir = Option.value (List.assoc_opt "out" args) ~default:"perfbench/_out";
      soimap = Option.value (List.assoc_opt "soimap" args) ~default:"_build/default/bin/soimap.exe";
    }
  in
  match get "workload" with
  | "all" -> run_all args
  | w -> (
      match List.assoc_opt w workloads with
      | Some run -> (
          try run_one w run env ~trace
          with e ->
            Printf.eprintf "bench: %s failed: %s\n" w (Printexc.to_string e);
            exit 2)
      | None -> usage ())
