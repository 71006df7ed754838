(** The daemon's fork-worker pool.

    [jobs] workers are forked at creation on the shared worker substrate
    ({!Specrepair_workers.Worker}: fork, pipes, line framing, reaping,
    kill), each running a caller-supplied handler.  The pool's messages:

    {v
    parent -> worker
      REQ <token> <line>      serve this request line
      QUIT                    exit cleanly

    worker -> parent
      HB <token>              request received; solving (heartbeat)
      RES <token> <W|C|R|U> <line>
                              reply line, tagged warm/cold/reused/uncached
    v}

    Workers are {e sticky}: the daemon routes each request to the worker
    owning its cache key (worker index = hash of key mod jobs), so warm
    state accumulates per worker and repeated requests hit it
    deterministically.  A worker that dies mid-request — crash, [kill -9],
    OOM — surfaces as a {!event.Died} for exactly its in-flight request,
    and the slot is respawned with a fresh (cold) handler: a crash costs
    one request, never the daemon.  Overdue workers (a request past its
    hard deadline) are SIGKILLed by {!kill_overdue} with the same
    one-request blast radius.

    The pool performs no I/O multiplexing of its own: the daemon folds
    {!fds} into its [select] set and calls {!drain} / {!reap} /
    {!kill_overdue} from its loop. *)

type t

type event =
  | Reply of { token : int; warmth : Handler.warmth; line : string }
  | Died of { token : int; slot : int }
      (** the worker serving [token] is gone; it has been respawned *)
  | Timed_out of { token : int; slot : int }
      (** the parent killed the worker for exceeding the request's hard
          deadline; it has been respawned *)

val create : jobs:int -> handle:(string -> string * Handler.warmth) -> t
(** Fork [jobs] (clamped to >= 1) workers.  [handle] runs in the worker
    processes; it must return a newline-free reply line. *)

val jobs : t -> int

val slot_of_key : t -> string -> int
(** The sticky worker index for a cache key. *)

val idle : t -> int -> bool
(** Has slot [i] no in-flight request? *)

val dispatch : t -> slot:int -> token:int -> ?kill_after_s:float -> string -> unit
(** Send a request line to an idle slot.  [kill_after_s] arms the hard
    deadline enforced by {!kill_overdue}.  Raises [Invalid_argument] if
    the slot is busy. *)

val fds : t -> Unix.file_descr list
(** Message-pipe descriptors to fold into the daemon's [select] read set
    (recompute after every {!drain}/{!reap}: respawns change them). *)

val drain : t -> Unix.file_descr list -> event list
(** Consume readable message pipes, returning completed replies (and
    death events discovered via EOF). *)

val reap : t -> event list
(** Poll [waitpid WNOHANG] over all slots: reap dead workers, respawn
    their slots, and return a {!event.Died} per lost in-flight request. *)

val kill_overdue : t -> event list
(** SIGKILL workers whose in-flight request passed its hard deadline;
    respawn and report {!event.Timed_out}. *)

val respawns : t -> int
(** Workers respawned after an unexpected death (the initial forks and
    QUIT-driven exits don't count). *)

val pids : t -> int list
(** Current worker pids, for tests that kill workers externally. *)

val shutdown : t -> unit
(** QUIT idle workers, SIGKILL busy ones, reap everything, close pipes. *)
