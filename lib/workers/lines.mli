(** Line framing for the worker pipes, the daemon's client sockets and
    the serve client: lines go out whole with {!write}, and an
    incremental framer splits the bytes read into ['\n']-terminated
    lines.  Bytes go in as they are read and complete lines come out; a
    line spanning many reads is scanned and copied a bounded number of
    times, not once per read. *)

type t

val create : unit -> t

val add : t -> bytes -> int -> int -> unit
(** [add t buf off k] appends [k] bytes of [buf] from [off]. *)

val pop : t -> string option
(** The oldest complete line, without its ['\n'], or [None] if no
    complete line is buffered. *)

val pending : t -> int
(** Bytes buffered and not yet popped.  Once {!pop} has returned [None]
    this is the length of the unterminated tail. *)

val clear : t -> unit
(** Drop every buffered byte. *)

val write : Unix.file_descr -> string -> unit
(** Write a line and its ['\n'] to a blocking descriptor, whole. *)
