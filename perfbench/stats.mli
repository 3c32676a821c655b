(** Order statistics for latency samples.

    The benchmark reports a timing as its median and its tail: the
    highest percentile of a fixed ladder (p99.9, p99.5, p99, p98, p95,
    p90, p75, p50) that still has at least ten samples strictly beyond
    it, so the tail is never read off a handful of outliers.  With the
    fixed-length request streams of every workload the chosen percentile
    is the same on every run of a given length. *)

val median : float array -> float
(** @raise Invalid_argument on an empty array. *)

type tail = {
  pct : float;  (** the percentile chosen from the ladder (100 if none fits) *)
  value : float;  (** the nearest-rank sample at [pct] *)
  beyond : int;  (** samples strictly above the chosen rank *)
  samples : int;  (** sample count *)
}

val min_beyond : int
(** 10: samples required beyond the tail percentile. *)

val tail : float array -> tail
(** The tail rule above.  With fewer than eleven samples no ladder
    percentile qualifies and the maximum (p100, 0 beyond) is returned.
    @raise Invalid_argument on an empty array. *)

val tail_label : tail -> string
(** ["p98 (n=800, 16 beyond)"]: the percentile and its sample counts,
    printed next to every tail latency. *)
