(** Forked worker processes: the one process substrate under the study
    scheduler, the daemon's serving pool and the client's [burst].

    A worker is a forked child joined to its parent by a command pipe
    and a message pipe, both carrying '\n'-terminated lines.  The child
    keeps no descriptor of the parent's but stdin, stdout, stderr and its
    own two pipe ends.  The substrate owns no event loop: callers
    [select] over the message pipes themselves and call {!drain},
    {!reap} and {!kill} from their own loop.  DESIGN.md ("Worker
    processes") describes the discipline. *)

type t = private {
  pid : int;
  cmd : Unix.file_descr;  (** parent's end of the command pipe *)
  msg : Unix.file_descr;  (** parent's end of the message pipe, non-blocking *)
  lines : Lines.t;  (** the message lines read and not yet passed on *)
  mutable last_beat : float;  (** spawn time or the last message's arrival *)
  mutable eof : bool;  (** the message pipe reached end of file *)
  mutable status : Unix.process_status option;
      (** [Some] once reaped; the parent's pipe ends are closed by then *)
}

val spawn : (recv:(unit -> string option) -> send:(string -> unit) -> unit) -> t
(** [spawn body] forks a worker running [body ~recv ~send]: [recv] reads
    the next command line ([None] at end of file), [send] writes one
    message line.  The child exits 0 when [body] returns and 2 when it
    raises; it never returns into the caller's code. *)

val send : t -> string -> bool
(** Write one command line; [false] if the worker is gone.  Writing to a
    dead worker raises SIGPIPE unless the parent runs under
    {!with_sigpipe_ignored}. *)

val drain : t -> readable:Unix.file_descr list -> (string -> unit) -> unit
(** If the worker's message pipe is in [readable], read it once without
    blocking and pass every complete line to the callback, in order.
    Every line counts as a heartbeat.  A pipe that is not actually ready
    (a [readable] set computed before a respawn recycled its descriptor
    number) reads nothing.  At end of file [eof] becomes [true]. *)

val reap : t -> Unix.process_status option
(** Poll [waitpid WNOHANG]: [None] while the worker runs, then its exit
    status (a worker reaped elsewhere reports [WEXITED 0]). *)

val wait : t -> unit
(** Block until the worker has exited and reap it. *)

val kill : t -> unit
(** SIGKILL the worker and reap it.  No-op on a reaped worker. *)

val stale : t -> timeout:float -> bool
(** Has the worker been silent for more than [timeout] seconds? *)

val select : t list -> float -> Unix.file_descr list
(** The readable message pipes among the given workers' open ones,
    waiting at most the given seconds; [[]] on EINTR or when no pipe is
    open. *)

val with_sigpipe_ignored : (unit -> 'a) -> 'a
(** Run with SIGPIPE ignored, so a write into a dead worker's pipe fails
    with [EPIPE] instead of killing the parent; the previous handler is
    restored afterwards, also when the function raises. *)

val one_line : string -> string
(** Replace newlines by spaces: makes any text one protocol line. *)
