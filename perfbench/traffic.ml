(* The seeded request streams of the three workloads.  See traffic.mli. *)

open Mapper

type config = { flow : Algorithms.flow; cost : Cost.model; label : string }

let table_configs =
  Algorithms.
    [|
      { flow = Domino_map; cost = Cost.area; label = "bulk/area" };
      { flow = Rs_map; cost = Cost.area; label = "rs/area" };
      { flow = Soi_domino_map; cost = Cost.area; label = "soi/area" };
      { flow = Soi_domino_map; cost = Cost.clock_weighted 2; label = "soi/clock2" };
      { flow = Domino_map; cost = Cost.depth_bulk; label = "bulk/depth" };
      { flow = Soi_domino_map; cost = Cost.depth_soi; label = "soi/depth" };
    |]

let soi_area = table_configs.(2)

let options c =
  Algorithms.options_of ~cost:c.cost ~w_max:5 ~h_max:8 ~both_orders:true
    ~grounded_at_foot:true ~pareto_width:1 c.flow

type net = { name : string; source : Logic.Network.t; blif : string; fixed : bool }

let has_wide_xor net =
  Logic.Network.fold_nodes
    (fun acc nd ->
      acc
      ||
      match nd.Logic.Network.func with
      | Logic.Network.Gate (Logic.Gate.Xor | Logic.Gate.Xnor) ->
          Array.length nd.Logic.Network.fanins > 4
      | _ -> false)
    false net

let blif_of net =
  Blif.to_string (if has_wide_xor net then Unate.Decompose.to_aoi net else net)

let suite_net name =
  let source = Gen.Suite.build_exn name in
  { name; source; blif = blif_of source; fixed = true }

(* Independent RNG streams per purpose, so adding a draw to one never
   shifts another. *)
let rng seed purpose = Logic.Rng.stream (seed land 0x3FFFFFFF) purpose

(* ---------------- compile ---------------- *)

type compile_req = { net : int; config : int; rewrite : int }

type compile = {
  corpus : net array;
  pass : compile_req array;
  passes : compile_req array array;
}

let compile ~seed ~passes =
  let fixed = List.map (fun e -> suite_net e.Gen.Suite.name) Gen.Suite.all in
  let g = rng seed 0 in
  let variants =
    List.filter_map
      (fun e ->
        let k = 1 + Logic.Rng.int g 100_000 in
        Option.map
          (fun source ->
            {
              name = Printf.sprintf "%s~%d" e.Gen.Suite.name k;
              source;
              blif = blif_of source;
              fixed = false;
            })
          (Gen.Suite.seed_variant e.Gen.Suite.name k))
      Gen.Suite.all
  in
  let corpus = Array.of_list (fixed @ variants) in
  let n_fixed = List.length fixed in
  (* Variant [v] is rewritten under the configs [c] with
     [(v + c) mod 3 = 0]: exactly two of the six.  The rewrite minority
     is the seeded part of the corpus; fixing its configurations keeps
     the seed from moving the latency tail, which these requests set. *)
  let pass =
    Array.concat
      (List.init (Array.length corpus) (fun net ->
           Array.mapi
             (fun config _ ->
               let v = net - n_fixed in
               let rewrite =
                 if v >= 0 && (v + config) mod 3 = 0 then 4 else 0
               in
               { net; config; rewrite })
             table_configs))
  in
  let passes =
    Array.init passes (fun p ->
        let a = Array.copy pass in
        Logic.Rng.shuffle (rng seed (10 + p)) a;
        a)
  in
  { corpus; pass; passes }

(* ---------------- serve_repeat ---------------- *)

let hot_set =
  [|
    "z4ml"; "cm150"; "cordic"; "c8"; "b9"; "f51m"; "9symml"; "count"; "c432";
    "c880"; "c7552"; "des";
  |]

let zipf_quotas ~total ranks =
  let k = Array.length ranks in
  if total < k then invalid_arg "Traffic.zipf_quotas: fewer requests than ranks";
  (* s = 1.2 makes waits behind a big request rarer than 1 request in
     200, so the tail (p99.5 at 15 s of stream) reads the big networks'
     service time rather than the count of such collisions, which the
     seed would move. *)
  let w = Array.init k (fun r -> Float.pow (float_of_int (r + 1)) (-1.2)) in
  let sum = Array.fold_left ( +. ) 0. w in
  let spare = float_of_int (total - k) in
  (* One request per rank up front, the rest by Zipf weight, rounding by
     largest remainder so the quotas sum to [total] exactly. *)
  let raw = Array.map (fun x -> spare *. x /. sum) w in
  let q = Array.map (fun x -> 1 + int_of_float x) raw in
  let left = ref (total - Array.fold_left ( + ) 0 q) in
  let by_rem = Array.init k Fun.id in
  Array.stable_sort
    (fun a b -> Float.compare (Float.rem raw.(b) 1.) (Float.rem raw.(a) 1.))
    by_rem;
  Array.iter
    (fun r ->
      if !left > 0 then begin
        q.(r) <- q.(r) + 1;
        decr left
      end)
    by_rem;
  q

type serve = { nets : net array; reqs : int array; payloads : string array }

let serve_repeat ~seed ~requests =
  let nets = Array.map suite_net hot_set in
  let q = zipf_quotas ~total:requests nets in
  (* Deal the requests, grouped by network, round-robin into blocks of
     about 125, then shuffle each block: every block carries the same
     mix, so big networks never bunch up by chance and the stream's
     queueing tail does not swing with the seed. *)
  let sorted = Array.concat (Array.to_list (Array.mapi (fun r n -> Array.make n r) q)) in
  let blocks = max 1 (requests / 125) in
  let g = rng seed 1 in
  let reqs =
    Array.concat
      (List.init blocks (fun b ->
           let blk =
             Array.of_list
               (List.filteri (fun j _ -> j mod blocks = b) (Array.to_list sorted))
           in
           Logic.Rng.shuffle g blk;
           blk))
  in
  { nets; reqs; payloads = Array.map (fun n -> Service.Protocol.json_escape n.blif) nets }

let frame ~id ~op fields =
  String.concat ""
    ([ {|{"id":"|}; id; {|","op":"|}; op; {|","format":"blif","flow":"soi","cost":"area"|} ]
    @ List.concat_map (fun (k, esc) -> [ {|,"|}; k; {|":"|}; esc; {|"|} ]) fields
    @ [ "}" ])

let serve_frame s i =
  frame ~id:(Printf.sprintf "r%d" i) ~op:"map" [ ("payload", s.payloads.(s.reqs.(i))) ]

let map_frame ~id net =
  frame ~id ~op:"map" [ ("payload", Service.Protocol.json_escape net.blif) ]

(* ---------------- remap_eco ---------------- *)

type remap_req = {
  chain : int;
  segment : int;
  payload : string;
  base : string;
  switch : bool;
  edit : string;
  skipped : int;
}

type remap = { bases : net array; base_blif : string array; steps : remap_req array }

let chain_names = [| "des"; "c7552" |]

let remap_eco ~seed ~requests =
  let bases = Array.map suite_net chain_names in
  let cur = Array.map (fun b -> Algorithms.prepare b.source) bases in
  let fp = Array.map Memo.fingerprint cur in
  let render u = Service.Protocol.json_escape (Blif.to_string (Unate.Unetwork.to_network u)) in
  let text = Array.map render cur in
  let base_blif = Array.copy text in
  let g = rng seed 2 in
  (* The stream is a run of segment pairs, one per chain: a des segment
     of 9 to 11 requests and a c7552 segment of 4 to 6, lengths drawn by
     the seed, cut at [requests].  Every pair has nearly the same mix
     (des about two thirds), so pairs are comparable units of work. *)
  let first = Logic.Rng.int g 2 in
  let order =
    let rec pairs left acc =
      if left <= 0 then List.rev acc
      else
        let len c = (if c = 0 then 9 else 4) + Logic.Rng.int g 3 in
        let a = min left (len first) in
        let b = min (left - a) (len (1 - first)) in
        pairs (left - a - b) ((1 - first, b) :: (first, a) :: acc)
    in
    List.filter (fun (_, len) -> len > 0) (pairs requests [])
  in
  (* Edit sites are stratified by topological position: each run of ten
     edits of a chain touches each tenth of its nodes once, in a seeded
     order.  Sites near the inputs ripple through far more cones than
     sites near the outputs, so stratifying keeps the stream's total
     re-pricing work — and the daemon's memo growth — from swinging with
     the seed. *)
  let strata = Array.make 2 [||] and made = Array.make 2 0 in
  let stratum c =
    if made.(c) mod 10 = 0 then begin
      strata.(c) <- Array.init 10 Fun.id;
      Logic.Rng.shuffle g strata.(c)
    end;
    let s = strata.(c).(made.(c) mod 10) in
    made.(c) <- made.(c) + 1;
    s
  in
  let site_stratum u s =
    let d = Check.Edit.describe ~seed:s u in
    let id =
      try Scanf.sscanf d "flip-kind node %d" Fun.id
      with Scanf.Scan_failure _ | End_of_file -> (
        try Scanf.sscanf d "rewire node %d" Fun.id
        with Scanf.Scan_failure _ | End_of_file -> 0)
    in
    id * 10 / max 1 (Unate.Unetwork.node_count u)
  in
  let steps = ref [] in
  List.iteri
    (fun segment (c, len) ->
      let base = text.(c) in
      for j = 0 to len - 1 do
        (* The next edit of chain [c]: draw edit seeds until one lands in
           the wanted stratum and changes some node's deep signature. *)
        let want = stratum c in
        let rec next skipped =
          let s = Logic.Rng.int g 0x3FFFFFFF in
          if site_stratum cur.(c) s <> want then next skipped
          else
            let u = Check.Edit.apply ~seed:s cur.(c) in
            let f = Memo.fingerprint u in
            if fst (Memo.dirty_counts ~prev:fp.(c) ~next:f) = 0 then next (skipped + 1)
            else (u, f, Check.Edit.describe ~seed:s cur.(c), skipped)
        in
        let u, f, edit, skipped = next 0 in
        cur.(c) <- u;
        fp.(c) <- f;
        text.(c) <- render u;
        steps := { chain = c; segment; payload = text.(c); base; switch = j = 0; edit; skipped } :: !steps
      done)
    order;
  { bases; base_blif; steps = Array.of_list (List.rev !steps) }

let remap_frame r i =
  let s = r.steps.(i) in
  frame ~id:(Printf.sprintf "e%d" i) ~op:"remap"
    [ ("base", s.base); ("payload", s.payload) ]

(* ---------------- determinism ---------------- *)

let digest frames =
  let ctx = Buffer.create 4096 in
  List.iter
    (fun f ->
      Buffer.add_string ctx (string_of_int (String.length f));
      Buffer.add_char ctx ':';
      Buffer.add_string ctx (Digest.string f))
    frames;
  Digest.to_hex (Digest.string (Buffer.contents ctx))

let compile_digest c =
  digest
    (Array.to_list (Array.map (fun n -> n.name ^ "\n" ^ n.blif) c.corpus)
    @ List.concat_map
        (fun pass ->
          Array.to_list
            (Array.map
               (fun r -> Printf.sprintf "%d/%d/%d" r.net r.config r.rewrite)
               pass))
        (Array.to_list c.passes))

let serve_digest s = digest (List.init (Array.length s.reqs) (serve_frame s))
let remap_digest r = digest (List.init (Array.length r.steps) (remap_frame r))
