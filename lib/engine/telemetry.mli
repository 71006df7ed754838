(** The telemetry sink of a repair session: monotonic counters and per-phase
    wall-clock timers, all mutated in place on the hot path (one field
    increment per event, no allocation).

    A sink belongs to one {!Session.t} and is shared by every layer the
    session is threaded through — the verdict helpers count solver queries,
    the search engines count candidates and pool sizes, the LLM pipelines
    count dialogue rounds.  Snapshots are serialized by
    {!Session.telemetry_json}. *)

type t = {
  mutable sat_verdicts : int;  (** solver queries answered [`Sat] *)
  mutable unsat_verdicts : int;  (** solver queries answered [`Unsat] *)
  mutable unknown_verdicts : int;
      (** solver queries exhausting their conflict budget *)
  mutable instance_queries : int;  (** witness / counterexample solves *)
  mutable enumerations : int;  (** instance-enumeration sweeps *)
  mutable candidates_generated : int;
      (** candidate specs produced by mutation / templates / proposals *)
  mutable candidates_evaluated : int;
      (** candidates actually scored against tests or the oracle *)
  mutable llm_rounds : int;  (** dialogue rounds of the LLM pipelines *)
  mutable proposal_builds : int;
      (** proposal distributions the LLM pipelines built: one per
          self-check loop, however many proposals it draws *)
  mutable pool_peak : int;  (** largest single mutation / template pool *)
  mutable deadline_checks : int;  (** cooperative deadline polls performed *)
  mutable certified_unsat : int;
      (** UNSAT verdicts whose DRUP certificate the checker accepted *)
  mutable certificate_failures : int;
      (** UNSAT verdicts the proof checker could {e not} certify *)
  phase_ms : (string, float) Hashtbl.t;
      (** accumulated wall-clock milliseconds per named phase *)
}

val create : unit -> t

val record_verdict : t -> [ `Sat | `Unsat | `Unknown ] -> unit
val record_instance_query : t -> unit
val record_enumeration : t -> unit
val candidates_generated : t -> int -> unit
(** Also tracks [pool_peak]. *)

val candidate_evaluated : t -> unit
val llm_round : t -> unit
val proposal_build : t -> unit
val deadline_check : t -> unit

val record_certified : t -> bool -> unit
(** Outcome of one proof-checker run over an UNSAT verdict (the oracle's
    [on_certify] callback feeds this when the session runs with
    [~certify:true]). *)

val add_phase_ms : t -> string -> float -> unit

val solver_queries : t -> int
(** Total verdict queries, all outcomes. *)

val phases : t -> (string * float) list
(** Phase timers, sorted by name. *)

val pp : Format.formatter -> t -> unit

(** Counters of one parallel-study scheduler run (the parent process's view
    of the dynamic work queue — see [Specrepair_eval.Scheduler]).  Unlike
    {!t} these belong to the whole study, not to one session; the study
    emits them as a final [{"scheduler":…}] line through its telemetry
    sink. *)
module Scheduler : sig
  type t = {
    mutable chunks_dispatched : int;
        (** chunk assignments sent to workers, requeues included *)
    mutable chunks_completed : int;  (** chunks whose result file was merged *)
    mutable rows_completed : int;  (** work items merged into the result *)
    mutable retries : int;  (** chunk requeues after a worker was lost *)
    mutable workers_spawned : int;  (** forks, respawns included *)
    mutable workers_lost : int;
        (** workers that died or were killed before finishing *)
    mutable heartbeat_kills : int;
        (** workers killed by the parent for a silent heartbeat *)
  }

  val create : unit -> t
  val to_json : jobs:int -> t -> Specrepair_json.t
  (** The counters as one JSON object, [jobs] first. *)

  val pp : Format.formatter -> t -> unit
end
