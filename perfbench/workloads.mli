(** The three workloads.

    Each runs its fixed-length seeded stream ({!Traffic}) once, checks
    every output with the correctness gate ({!Verify}), and returns its
    end-to-end metrics — or, with [~trace:true], its per-layer metrics
    from an in-process replay of the same stream under {!Spans}.  See
    perfbench/README.md for why each workload exists and which layer
    metric should move which end-to-end metric. *)

type env = {
  seed : int;
  seconds : int;  (** sets each stream's fixed length *)
  out_dir : string;  (** daemon sockets and logs, trace files *)
  soimap : string;  (** the built [soimap] executable *)
}

type result = {
  attempted : int;  (** timed requests *)
  failed : int;  (** requests without a correct [ok] answer *)
  errors : string list;  (** every correctness problem seen; [] when clean *)
  metrics : (string * float) list;
  lines : string list;  (** human-readable detail *)
}

val compile_passes : int -> int
val serve_requests : int -> int
val remap_requests : int -> int
(** Stream lengths for a [--seconds] value. *)

val compile : env -> trace:bool -> result
val serve_repeat : env -> trace:bool -> result
val remap_eco : env -> trace:bool -> result
