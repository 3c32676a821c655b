(* The benchmark's calls into the mapper's layers.  See layers.mli. *)

open Mapper

type acc = {
  mutable engine_calls : int;
  mutable combinations : int;
  mutable tuples_kept : int;
  mutable portfolios : int;
  mutable variants : int;
  mutable remap_nodes : int;
  mutable remap_dirty : int;
  mutable baseline_misses : int;
}

let acc =
  {
    engine_calls = 0;
    combinations = 0;
    tuples_kept = 0;
    portfolios = 0;
    variants = 0;
    remap_nodes = 0;
    remap_dirty = 0;
    baseline_misses = 0;
  }

let reset () =
  acc.engine_calls <- 0;
  acc.combinations <- 0;
  acc.tuples_kept <- 0;
  acc.portfolios <- 0;
  acc.variants <- 0;
  acc.remap_nodes <- 0;
  acc.remap_dirty <- 0;
  acc.baseline_misses <- 0

let count_stats (s : Engine.stats) =
  acc.engine_calls <- acc.engine_calls + 1;
  acc.combinations <- acc.combinations + s.combinations_tried;
  acc.tuples_kept <- acc.tuples_kept + s.tuples_kept

let parse_blif ~req text = Spans.span "blif.parse" ~req (fun () -> Blif.parse_string text)
let prepare ~req net = Spans.span "unate.prepare" ~req (fun () -> Algorithms.prepare net)

let engine ~req ?memo cfg u =
  let name = if memo = None then "mapper.engine" else "mapper.engine_memo" in
  let ((_, stats) as r) =
    Spans.span name ~req (fun () -> Engine.map ?memo (Traffic.options cfg) u)
  in
  count_stats stats;
  r

let postprocess ~req (cfg : Traffic.config) c =
  Spans.span "postprocess" ~req (fun () -> Algorithms.postprocess cfg.flow c)

let portfolio ~req (cfg : Traffic.config) u =
  let o =
    Spans.span "rewrite.portfolio" ~req (fun () ->
        Restructure.map_best ~limit:4
          ~postprocess:(Algorithms.postprocess cfg.flow)
          (Traffic.options cfg) u)
  in
  count_stats o.Restructure.stats;
  acc.portfolios <- acc.portfolios + 1;
  acc.variants <- acc.variants + o.Restructure.info.generated;
  o.Restructure.circuit

let remap_init ~req ~memo cfg u =
  let st, (_, stats) =
    Spans.span "mapper.engine_memo" ~req (fun () ->
        Engine.remap_init ~memo (Traffic.options cfg) u)
  in
  count_stats stats;
  acc.baseline_misses <- acc.baseline_misses + 1;
  st

let fingerprint ~req u =
  Spans.span "remap.fingerprint" ~req (fun () -> ignore (Memo.fingerprint u))

let remap ~req st u =
  let c, stats, info = Spans.span "remap.remap" ~req (fun () -> Engine.remap st u) in
  count_stats stats;
  acc.remap_nodes <- acc.remap_nodes + Unate.Unetwork.node_count u;
  acc.remap_dirty <- acc.remap_dirty + info.Engine.dirty_cones;
  (c, info)

let parse_request ~req frame =
  match Spans.span "protocol.parse" ~req (fun () -> Service.Protocol.parse_request frame) with
  | Ok r -> r
  | Error msg -> failwith ("protocol: " ^ msg)

let render ~req ?remap ~id counts =
  let remap =
    Option.map
      (fun ((i : Engine.remap_info), nodes) ->
        {
          Service.Protocol.rs_nodes = nodes;
          rs_dirty = i.Engine.dirty_cones;
          rs_clean = i.Engine.clean_cones;
        })
      remap
  in
  Spans.span "protocol.render" ~req (fun () ->
      Service.Protocol.render_mapped ?remap ~id ~status:"ok" ~counts ~degradations:[]
        ~elapsed_ms:0. ~dump:None ())

type mapped = {
  circuit : Domino.Circuit.t;
  counts : Domino.Circuit.counts;
  unate : Unate.Unetwork.t;
}

let map_net ~req ?memo cfg ~rewrite net =
  let unate = prepare ~req net in
  let circuit =
    if rewrite > 0 then portfolio ~req cfg unate
    else
      let c, _ = engine ~req ?memo cfg unate in
      postprocess ~req cfg c
  in
  { circuit; counts = Domino.Circuit.counts circuit; unate }

let map_blif ~req ?memo cfg ~rewrite text =
  Spans.span "request" ~req (fun () -> map_net ~req ?memo cfg ~rewrite (parse_blif ~req text))
