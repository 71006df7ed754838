(** Worker-side request execution: one handler per worker process, owning
    that worker's warm-state {!Registry}.

    The handler holds no reply memo: the daemon answers a repeated
    [repair] request itself, from {!Replies}, and forwards that hit on
    the slot's next request as a touch, which {!serve} replays on the
    registry before handling the request.  So the registry's recency and
    counters are those of a worker that had served every request.

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
  | Uncached  (** no cacheable state involved (errors, status) *)

type t

val create : max_sessions:int -> unit -> t

val handle : t -> string -> string * warmth
(** [handle t line] executes one request line and returns the reply line
    (newline-free) and its warmth. *)

val serve : t -> touched:string list -> string -> string * warmth * string list
(** What a serve worker runs per request: {!Registry.touch} each of
    [touched] in order, {!handle} the line, and return the reply, its
    warmth and the registry keys evicted meanwhile, oldest first. *)

val stored_result : string -> string option
(** [stored_result reply], for a repair reply line, is the result the
    daemon's memo stores: its [result] rendered with ["warm":true], byte
    for byte what the handler renders for a warm run.  [None] for an
    error reply, and for a result that timed out: such a result depends
    on the clock, not only on the request. *)

val registry_stats : t -> Specrepair_json.Counters.t
