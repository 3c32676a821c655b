(** The benchmark's calls into the mapper's layers, one function per
    public entry point, each wrapped in a {!Spans.span} named after the
    layer it measures.  The in-process workloads and the traced replays
    of the daemon workloads go through these and nothing else, so the
    spans cover every layer boundary the benchmark crosses. *)

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
(** Counts taken at the same boundaries as the spans. *)

val acc : acc
val reset : unit -> unit

val parse_blif : req:int -> string -> Logic.Network.t
val prepare : req:int -> Logic.Network.t -> Unate.Unetwork.t

val engine :
  req:int -> ?memo:Mapper.Memo.t -> Traffic.config -> Unate.Unetwork.t ->
  Domino.Circuit.t * Mapper.Engine.stats
(** [Engine.map]: span [mapper.engine] without a memo, [mapper.engine_memo]
    through one. *)

val postprocess : req:int -> Traffic.config -> Domino.Circuit.t -> Domino.Circuit.t

val portfolio : req:int -> Traffic.config -> Unate.Unetwork.t -> Domino.Circuit.t
(** [Restructure.map_best ~limit:4], already postprocessed. *)

val remap_init :
  req:int -> memo:Mapper.Memo.t -> Traffic.config -> Unate.Unetwork.t ->
  Mapper.Engine.remap_state

val fingerprint : req:int -> Unate.Unetwork.t -> unit
(** [Memo.fingerprint], timed on its own ([Engine.remap] repeats it). *)

val remap :
  req:int -> Mapper.Engine.remap_state -> Unate.Unetwork.t ->
  Domino.Circuit.t * Mapper.Engine.remap_info

val parse_request : req:int -> string -> Service.Protocol.request
(** @raise Failure on a frame the protocol rejects. *)

val render :
  req:int -> ?remap:Mapper.Engine.remap_info * int -> id:string ->
  Domino.Circuit.counts -> string

type mapped = {
  circuit : Domino.Circuit.t;
  counts : Domino.Circuit.counts;
  unate : Unate.Unetwork.t;
}

val map_net : req:int -> ?memo:Mapper.Memo.t -> Traffic.config -> rewrite:int -> Logic.Network.t -> mapped
(** prepare, engine (or the rewrite portfolio when [rewrite > 0]),
    postprocess, counts. *)

val map_blif : req:int -> ?memo:Mapper.Memo.t -> Traffic.config -> rewrite:int -> string -> mapped
(** {!parse_blif} then {!map_net} — the [soimap] pipeline on one netlist —
    under a [request] span. *)
