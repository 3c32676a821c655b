(** The traced run's span recorder.

    Spans are recorded by the benchmark's own code around each call into
    a layer (never inside the program), held in memory, and written out
    once at the end as a Chrome trace-event file that Perfetto or
    chrome://tracing loads.  A span's parent is the span open when it
    started; every span of one request carries the request's index.
    When recording is off, {!span} is one branch and a call. *)

val set_enabled : bool -> unit
val reset : unit -> unit

val span : string -> req:int -> (unit -> 'a) -> 'a
(** [span name ~req f] runs [f], recording a span named [name] around
    it when recording is on.  Spans nest by dynamic extent. *)

type summary = {
  name : string;
  calls : int;
  total_ms : float;  (** sum of durations *)
  self_ms : float;  (** sum of durations minus the time children cover *)
}

val summarise : unit -> summary list
(** Per span name, in order of first appearance. *)

val mean_self_ms : summary list -> string -> float
(** Mean self time per call of the named span; 0 when it never ran. *)

val write : string -> unit
(** Write the recorded spans as [{"traceEvents":[...]}] to a file. *)
