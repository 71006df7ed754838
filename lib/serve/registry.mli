(** The warm-state registry of a serve worker: a bounded LRU of cache
    entries keyed by request digest ({!Protocol.cache_key}).

    Each worker process owns one registry.  Entries hold whatever warm
    state the handler wants to amortize — in practice a type-checked
    environment plus its incremental {!Specrepair_solver.Oracle.t}, whose
    digest-keyed verdict/instance caches and activation-literal memos are
    the ~4x of [BENCH_oracle.json].  The LRU bound ([--max-sessions] on
    the daemon) caps memory: the least-recently-used entry is dropped when
    a fresh key would exceed it. *)

type 'a t

module Counters = Specrepair_json.Counters

val create : max:int -> 'a t
(** [max < 1] is clamped to 1. *)

val find_or_add : 'a t -> string -> (unit -> 'a) -> 'a * bool
(** [find_or_add t key build] returns the entry for [key], building (and
    caching) it on a miss.  The boolean is [true] on a hit — the request
    ran against warm state.  Both outcomes promote the key to
    most-recently-used. *)

val size : 'a t -> int
val stats : 'a t -> Counters.t
(** Snapshot of the registry's counters, schema ["registry"]: lookups
    served from the registry ([hits]), lookups that built a fresh entry
    ([misses]) and entries dropped by the LRU bound ([evictions]). *)

val touch : 'a t -> string -> unit
(** [touch t key] promotes a held [key] to most-recently-used, as a
    {!find_or_add} hit would, without counting a lookup; a key the
    registry does not hold is ignored.  The daemon's reply memo answers
    repeats without the worker, which replays them through [touch]. *)

val take_evicted : 'a t -> string list
(** The keys the LRU bound dropped since the last call, oldest first. *)

val hits : Counters.key
val misses : Counters.key
