(** The correctness gate.

    Every mapping the benchmark accepts is simulated against the network
    it came from: bit-parallel random vectors through {!Logic.Eval} on
    the source network (independent of the mapper's front end), and
    {!Domino.Circuit.equivalent_to} against the unate network the
    engine mapped.  Daemon responses are judged against a cold,
    memo-free in-process mapping of the same payload that has itself
    passed this gate. *)

val vectors : int
(** Random vectors per check (2048). *)

val against_source : Domino.Circuit.t -> Logic.Network.t -> bool
(** Outputs matched by name, inputs by position. *)

val circuit : Domino.Circuit.t -> source:Logic.Network.t -> unate:Unate.Unetwork.t -> bool
(** Both checks. *)

val counts_of_response : Obs.Json.t -> Domino.Circuit.counts option
(** The [counts] member of a mapped response. *)

val pp_counts : Domino.Circuit.counts -> string
