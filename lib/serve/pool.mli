(** The daemon's fork-worker pool.

    [jobs] workers are forked at creation on the shared worker substrate
    ({!Specrepair_workers.Worker}: fork, pipes, line framing, reaping,
    kill), each running a caller-supplied handler.  The pool's messages:

    {v
    parent -> worker
      REQ <token> <touched> <line>
                              replay the touched registry keys, then serve
                              this request line
      QUIT                    exit cleanly

    worker -> parent
      RES <token> <W|C|U> <evicted> <line>
                              reply line, tagged warm/cold/uncached, with
                              the registry keys evicted while serving it
    v}

    [<touched>] and [<evicted>] are comma-joined registry keys (hex
    digests), or [-] for none.  They keep the daemon's reply memo
    ({!Replies}) equal to the worker's registry: the daemon answers a
    repeat itself and forwards the hit as a touch on the slot's next
    [REQ], and drops what a [RES] reports evicted.  A worker sends no
    heartbeat: the daemon bounds a request by its hard deadline, not by
    silence.

    Workers are {e sticky}: the daemon routes each request to the worker
    owning its cache key (worker index = hash of key mod jobs), so warm
    state accumulates per worker and repeated requests hit it
    deterministically.  A worker that dies mid-request — crash, [kill -9],
    OOM — surfaces as a {!event.Died} for exactly its in-flight request,
    and the slot is respawned with a fresh (cold) handler: a crash costs
    one request, never the daemon.  Overdue workers (a request past its
    hard deadline) are SIGKILLed by {!kill_overdue} with the same
    one-request blast radius.  Every respawn, busy or idle, also surfaces
    as a {!event.Respawned}, on which the daemon drops the slot's memo.

    The pool performs no I/O multiplexing of its own: the daemon folds
    {!fds} into its [select] set and calls {!drain} / {!reap} /
    {!kill_overdue} from its loop.  Each returns its events in the order
    they happened. *)

type t

type event =
  | Reply of {
      token : int;
      slot : int;
      warmth : Handler.warmth;
      evicted : string list;  (** registry keys dropped, oldest first *)
      line : string;
    }
  | Died of { token : int; slot : int }
      (** the worker serving [token] is gone; it has been respawned *)
  | Timed_out of { token : int; slot : int }
      (** the parent killed the worker for exceeding the request's hard
          deadline; it has been respawned *)
  | Respawned of { slot : int }
      (** the slot runs a fresh worker, with an empty registry *)

val create :
  jobs:int ->
  handle:(touched:string list -> string -> string * Handler.warmth * string list) ->
  t
(** Fork [jobs] (clamped to >= 1) workers.  [handle] runs in the worker
    processes, as {!Handler.serve} does: it gets a [REQ]'s touched keys
    and request line, and must return a newline-free reply line, its
    warmth and the evicted keys. *)

val jobs : t -> int

val slot_of_key : t -> string -> int
(** The sticky worker index for a cache key. *)

val idle : t -> int -> bool
(** Has slot [i] no in-flight request? *)

val dispatch :
  t -> slot:int -> token:int -> ?kill_after_s:float -> ?touched:string list -> string -> unit
(** Send a request line to an idle slot, after the [touched] registry
    keys (default none).  [kill_after_s] arms the hard deadline enforced
    by {!kill_overdue}.  Raises [Invalid_argument] if the slot is busy. *)

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
