(** Worker-side request execution: one handler per worker process, owning
    that worker's warm-state {!Registry}.

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

val create : max_sessions:int -> t

val handle : t -> string -> string * warmth
(** [handle t line] executes one request line and returns the reply line
    (newline-free) and its warmth. *)

val registry_stats : t -> Specrepair_json.Counters.t
