(** The daemon's reply memo: repeated [repair] requests answered at the
    front door, without a round trip to the worker.

    A repair reply depends on the worker's registry entry (keyed on the
    source and profile, {!Protocol.cache_key}) and on four more request
    fields: [tool], [seed], [file] and [deadline_ms].  The memo keeps one
    table per worker slot, from an entry key to the results stored for
    it, at most {!bound} of them, newest first.  It mirrors the slot's
    registry, so the worker stays the owner of entry lifetime and
    recency:
    - an entry key appears only when that worker's reply is stored, and
      goes when its [RES] reports the key evicted, or when the slot's
      worker is respawned ({!clear});
    - a hit is queued as a touch, which the daemon forwards on the slot's
      next request ({!touched}) and the worker replays on its registry
      ({!Handler.serve}), so the registry evicts what it would have
      evicted had the worker served the hit.

    So the memo holds at most workers x [max_sessions] x {!bound} results,
    and every reply and warm flag is the one a worker-side memo gave.
    The module does no I/O. *)

type t

type key
(** The memo key of one repair request. *)

val bound : int
(** Results one entry holds at most (8); a ninth drops the oldest stored
    one (insertion order, not use). *)

val create : no_cache:bool -> slots:int -> t
(** One table per slot.  [~no_cache:true] (the daemon's
    [SPECREPAIR_NO_CACHE=1]) stores nothing, so every request reaches a
    worker. *)

val key : entry:string -> Protocol.call -> key option
(** The memo key of a request whose {!Protocol.cache_key} is [entry]:
    [Some] for a [repair] request without [params.chaos], whose reply
    must come from a worker. *)

val find : t -> slot:int -> id:string -> key -> string option
(** The reply to a stored request, under its own [id] and with
    ["warm":true].  A hit queues the entry key as a touch for the slot. *)

val touched : t -> slot:int -> string list
(** Take the slot's queued touches: the entry keys answered since its
    last request, each once, in the order of its latest hit. *)

val record :
  t -> slot:int -> key option -> Handler.warmth -> evicted:string list -> string -> unit
(** [record t ~slot key warmth ~evicted reply] takes in a worker's reply:
    drop the entries its registry [evicted], then store the result of
    [reply] under [key] if it is an ok, not timed-out reply of a [Warm]
    or [Cold] run ({!Handler.stored_result}). *)

val clear : t -> slot:int -> unit
(** Forget the slot's results and touches: its worker was respawned with
    an empty registry. *)

(** Who answered a request. *)
type answer = Memo | Worker of Handler.warmth

val local : t -> Handler.t -> string -> string * answer
(** The daemon's order for one slot, in one process: look the request up
    in slot 0's table, or run it on the handler with the slot's touches
    and record the reply.  The [replies] fuzz target and the serve tests
    drive the memo through it. *)
