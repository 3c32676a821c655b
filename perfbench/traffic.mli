(** The seeded request streams of the three workloads.

    Everything here is a pure function of [(seed, length)]: the same
    seed always yields a byte-identical stream ({!digest}), and the
    program under test only ever sees the generated inputs.  Stream
    lengths are fixed up front — never "whatever fits in a time window"
    — so counts and memory do not depend on how fast the system is. *)

(** {1 Mapping configurations} *)

type config = {
  flow : Mapper.Algorithms.flow;
  cost : Mapper.Cost.model;
  label : string;  (** e.g. ["soi/area"] *)
}

val table_configs : config array
(** The paper's table configurations: bulk, rs and soi under area cost
    (Tables I and II), soi clock-weighted with k = 2 (Table III),
    bulk/depth_bulk and soi/depth_soi (Table IV). *)

val soi_area : config

val options : config -> Mapper.Engine.options
(** The engine options {!Mapper.Algorithms.run} would use. *)

(** {1 Circuits} *)

type net = {
  name : string;
  source : Logic.Network.t;  (** the generated network, the reference *)
  blif : string;
      (** the netlist a client sends; networks with XORs wider than 4
          inputs are first decomposed to 2-input gates, whose BLIF cover
          stays linear in size *)
  fixed : bool;  (** seed-independent (a {!Gen.Suite.all} build) *)
}

(** {1 compile} *)

type compile_req = { net : int; config : int; rewrite : int }

type compile = {
  corpus : net array;
  pass : compile_req array;  (** one pass: every net under every config *)
  passes : compile_req array array;  (** the stream: each pass reordered *)
}

val compile : seed:int -> passes:int -> compile
(** Every {!Gen.Suite.all} circuit plus one seeded
    {!Gen.Suite.seed_variant} rebuild of each random-logic stand-in,
    each under every {!table_configs} entry; each pass reorders the same
    258 requests by the seed.  Only the seeded variants use the
    rewriting front end ([rewrite = 4]), each under two fixed
    configurations: 30 requests a pass. *)

(** {1 serve_repeat} *)

val hot_set : string array
(** The twelve suite circuits of the hot set, most popular first. *)

val zipf_quotas : total:int -> 'a array -> int array
(** [zipf_quotas ~total ranks]: how many of [total] requests each rank
    receives under a Zipf (s = 1.2) popularity law — one each up front,
    the rest by weight, rounded by largest remainder so they sum to
    [total].  @raise Invalid_argument when [total] is below the rank
    count. *)

type serve = {
  nets : net array;  (** the hot set *)
  reqs : int array;  (** request [i] maps [nets.(reqs.(i))] *)
  payloads : string array;  (** each hot net's BLIF, JSON-escaped *)
}

val serve_repeat : seed:int -> requests:int -> serve
(** Per-network request counts are the Zipf quotas of the hot set,
    dealt evenly into blocks of about 125 requests; the seed shuffles
    each block.  Connection [c] of [k] sends requests [c], [c + k], ...
    in order. *)

val serve_frame : serve -> int -> string
(** The wire frame of request [i]: a BLIF [map] request (soi, area). *)

val map_frame : id:string -> net -> string
(** A BLIF [map] request (soi, area) for [net] — the warm-up frames. *)

(** {1 remap_eco} *)

type remap_req = {
  chain : int;  (** 0 = des, 1 = c7552 *)
  segment : int;  (** segment [2k] and [2k + 1] form pair [k] *)
  payload : string;  (** BLIF of the edited network, JSON-escaped *)
  base : string;  (** BLIF of the base it is edited against, JSON-escaped *)
  switch : bool;  (** the base differs from the previous request's *)
  edit : string;  (** {!Check.Edit.describe} of the edit *)
  skipped : int;  (** no-op edit seeds skipped before this one *)
}

type remap = {
  bases : net array;  (** the two chains' starting networks *)
  base_blif : string array;
      (** each chain's starting version as a unate-form BLIF netlist,
          JSON-escaped: the first base of the chain and the warm-up
          payload *)
  steps : remap_req array;
}

val remap_eco : seed:int -> requests:int -> remap
(** Two seeded {!Check.Edit} chains, over des and c7552, in alternating
    segment pairs: 9 to 11 des requests then 4 to 6 c7552 requests (or
    the other way round, by the seed), lengths drawn by the seed.  Each
    segment's base is its chain's latest version when the segment
    starts, and each request carries the next edit of its chain.  Edit
    sites are stratified by topological position (each ten edits of a
    chain touch each tenth of its nodes once), and edit seeds whose edit
    changes no node's deep signature are skipped, so the
    identical-network fast path never stands in for an edit. *)

val remap_frame : remap -> int -> string
(** The wire frame of request [i]: a BLIF [remap] request (soi, area). *)

val frame : id:string -> op:string -> (string * string) list -> string
(** [frame ~id ~op fields]: a soi/area BLIF request frame with extra
    string members whose values are already JSON-escaped. *)

(** {1 Determinism} *)

val compile_digest : compile -> string
(** Hex MD5 over a stream: the corpus netlists and every request. *)

val serve_digest : serve -> string
val remap_digest : remap -> string
