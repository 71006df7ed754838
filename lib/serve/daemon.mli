(** The [specrepair serve] daemon: a long-lived server answering
    concurrent repair / evaluate / sat / status requests over a
    Unix-domain socket (optionally TCP) from warm per-worker state.

    One process, one [select] loop: client sockets, listener sockets and
    the {!Pool}'s worker message pipes are multiplexed together.  The
    parent never solves — it parses and validates requests
    ({!Protocol.parse_request}), applies admission control, routes each
    request to its sticky worker, and forwards reply lines; all solving
    (and the registries of warm entries) lives in the forked workers, so
    a worker crash costs exactly the request it was serving.

    {b Reply memo.}  The daemon owns the reply memo ({!Replies}): when a
    [repair] request's sticky worker is idle and the memo holds the
    request's result, the daemon answers it with the stored result under
    the request's [id] and ["warm":true], without a worker round trip,
    and counts it in [cache_hits] and [replies_reused].  A request for a
    busy worker is queued and looked up when it is dispatched.  The hit
    goes to the worker as a touch on its next request, and each worker
    reply reports the keys its registry evicted, so the memo holds only
    what the worker's registry holds; a respawned worker's memo is
    dropped.  [SPECREPAIR_NO_CACHE=1] in the daemon's environment, read
    once by {!run}, stores nothing.  Requests carrying [params.chaos]
    skip the memo.

    {b Admission.}  A request is dispatched if its sticky worker is idle,
    queued while fewer than [queue_depth] requests wait, and refused with
    an immediate [overloaded] reply once [max_inflight] requests are in
    the system (dispatched + queued) or the queue is full.

    {b Deadlines.}  A request's [deadline_ms] is enforced cooperatively by
    the worker's {!Specrepair_engine.Session} (best-effort results, the
    [timed_out] flag).  The daemon additionally arms a hard backstop at
    [3 x deadline + 2 s] — a worker stuck past that is SIGKILLed, the
    client gets a [deadline_exceeded] reply, and the slot respawns cold.
    [hard_timeout_ms] arms the same backstop for deadline-less requests.

    {b Shutdown.}  SIGTERM/SIGINT stop the loop: queued requests are
    answered [shutting_down], workers are released, the socket file is
    unlinked, and [run] returns (exit 0 in the CLI). *)

type config = {
  socket : string option;  (** Unix-domain socket path *)
  tcp : int option;  (** TCP port on 127.0.0.1 *)
  workers : int;  (** pool size (sticky routing over this many slots) *)
  max_sessions : int;  (** warm-entry LRU bound per worker *)
  max_inflight : int;  (** admission bound: dispatched + queued *)
  queue_depth : int;  (** bound on the wait queue alone *)
  max_request_bytes : int;  (** request lines beyond this are [oversized] *)
  hard_timeout_ms : float option;
      (** hard kill for requests {e without} a deadline; [None] = never *)
  telemetry : string option;  (** append per-request JSONL to this path *)
}

val default_config : config
(** workers 2, max_sessions 32, max_inflight 64, queue_depth 64,
    max_request_bytes 8 MiB, no hard timeout, no listeners (callers must
    set [socket] or [tcp]). *)

val run : config -> unit
(** Serve until SIGTERM/SIGINT.  Raises [Failure] if no listener is
    configured or the socket cannot be bound.  Prints one
    ["serve: listening ..."] line on stdout when ready and one
    ["serve: shutdown ..."] line when done. *)
