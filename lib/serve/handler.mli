(** Worker-side request execution: one handler per worker process, owning
    that worker's warm-state {!Registry}.

    Each spec entry also owns a reply memo for [repair] requests, keyed
    on the fields the registry key (source and profile) leaves out:
    [tool], [seed], [file] and [deadline_ms].  A repeat of a request whose
    result the entry already holds is answered from it, with the
    request's [id] and ["warm":true], without running the tool.  Only
    results that did not time out are stored; the memo keeps the
    {!memo_bound} newest and goes away with its entry when the registry
    evicts it.

    [handle] turns a raw request line into a complete reply line plus a
    warmth tag for the daemon's cache counters.  It never raises: every
    failure mode — malformed request, spec that fails the frontend,
    unparsable CNF, an engine exception — becomes an [ok:false] reply
    with the matching {!Protocol.error_code}.

    Chaos injection (test-only): when the daemon runs with
    [SPECREPAIR_SERVE_CHAOS=1], a request's [params.chaos] is honoured —
    ["kill"] SIGKILLs the worker process before it replies (the daemon
    must answer [worker_crashed] and respawn), ["sleep:<ms>"] delays the
    reply (deterministic overload/timeout tests).  Without the
    environment variable the parameter is ignored. *)

(** Warmth of one served request, for the daemon's counters. *)
type warmth =
  | Warm  (** served against a registry hit *)
  | Cold  (** served against a freshly built entry *)
  | Reused  (** answered from a warm entry's reply memo *)
  | Uncached  (** no cacheable state involved (errors, status) *)

type t

val memo_bound : int
(** Results one entry's reply memo holds at most (8); the oldest is
    dropped first. *)

val create : ?no_cache:bool -> max_sessions:int -> unit -> t
(** [~no_cache:true] bypasses the reply memo: every repair request runs
    its tool.  The default reads [SPECREPAIR_NO_CACHE=1] once, here. *)

val handle : t -> string -> string * warmth
(** [handle t line] executes one request line and returns the reply line
    (newline-free) and its warmth. *)

val registry_stats : t -> Specrepair_json.Counters.t
