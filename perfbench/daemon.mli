(** A fresh [soimap --serve] daemon per run, on a Unix socket.

    The daemon is a child process of the benchmark: {!start} launches it
    with the workload's fixed [--jobs]/[--dispatchers] and waits until it
    answers [ping]; {!stop} drains it with SIGTERM and requires a clean
    exit.  Every daemon still running when the benchmark exits (on any
    path) is killed and reaped by an [at_exit] hook. *)

type t

val start :
  exe:string -> dir:string -> jobs:int -> dispatchers:int -> (t, string) result
(** The socket and the daemon's stderr log live in [dir]. *)

val pid : t -> int

val connect : t -> Service.Client.t
(** @raise Failure when the daemon cannot be reached. *)

val ledger : Service.Client.t -> ((string * int) list, string) result
(** The [stats] op's flat [service] totals. *)

val check_ledger : (string * int) list -> expected:int -> string list
(** Violations of [requests = ok + degraded + failed + rejected],
    [rejected = errors = 0] and [requests = expected]; [] when clean. *)

val stop : t -> (unit, string) result
(** SIGTERM, then wait; [Error] unless the daemon drained and exited 0.
    A clean stop removes the daemon's log. *)

val peak_rss_mb : int -> float
(** [VmHWM] of a process from [/proc/PID/status], in MiB. *)
