(** The telemetry counters of a repair session: one {!Counters} set per
    session, bumped in place on the hot path (one array store per event,
    no allocation).

    A set belongs to one {!Session.t} and is shared by every layer the
    session is threaded through: the verdict helpers count solver queries,
    the search engines count candidates and pool sizes, the LLM pipelines
    count dialogue rounds.  {!Session.telemetry_json} prints its keys, in
    declaration order, at the top level of a telemetry line; each key is
    declared and described once, in telemetry.ml. *)

module Counters = Specrepair_json.Counters

type t = Counters.t

val create : unit -> t
val incr : t -> Counters.key -> unit

(** {2 Keys} bumped outside this module *)

val instance_queries : Counters.key
val enumerations : Counters.key
val candidates_evaluated : Counters.key
val llm_rounds : Counters.key
val proposal_builds : Counters.key
val deadline_checks : Counters.key

val record_verdict : t -> [ `Sat | `Unsat | `Unknown ] -> unit

val record_pool : t -> int -> unit
(** A pool of [n] candidates: adds [n] to [candidates_generated] and
    raises [pool_peak] to [n]. *)

val solver_queries : t -> int
(** Total verdict queries, all outcomes. *)
