(** The hybrid repair tool the paper's discussion sketches as future work:
    a dynamic pipeline that first lets a traditional engine attempt a
    systematic repair and, when it falls short, hands the engine's
    best-effort candidate to the Multi-Round LLM pipeline to finish the
    job.  This is RQ3's union made operational in a single tool. *)

module Llm = Specrepair_llm
module Common = Specrepair_repair.Common

type stage = Traditional_sufficed | Llm_finished | Unrepaired

val stage_to_string : stage -> string

val repair :
  ?session:Specrepair_repair.Session.t ->
  ?profile:Llm.Model.profile ->
  Llm.Task.t ->
  Common.result * stage
(** Runs ATR first (structured, template-based); on failure, continues with
    Multi-Round/Auto from ATR's best-effort spec so partial progress (for
    example one of two compound faults already fixed) is preserved.  One
    session spans both stages — shared oracle, aggregated telemetry, one
    deadline across the pipeline.  Without [?session] a default one is
    created from the task's faulty spec, identically for every profile and
    entry point (pinned by test against an explicit session). *)

(** {2 Single-spec repair tools} *)

val tools :
  (string
  * (session:Specrepair_repair.Session.t ->
    profile:Llm.Model.profile ->
    Specrepair_alloy.Typecheck.env ->
    Llm.Task.t ->
    Common.result))
  list
(** The engines a single-spec repair request can name, in menu order:
    [repair --tool] and the daemon's [params.tool] both read this table.
    Each takes the spec's env and a task over the same faulty spec. *)

(** {2 Learned ordering} *)

type plan = {
  defect_class : string;  (** {!Learned.defect_class_of_task} *)
  ordering : (Technique.t * float) list;
      (** techniques with statistics for the class, best
          expected-value-per-ms first *)
  learned : bool;  (** [false] = cold start, the static pipeline runs *)
}

val plan : ?stats:Learned.t -> Llm.Task.t -> plan
(** The ordering {!repair_learned} would race, without running anything. *)

type learned_outcome = {
  result : Common.result;
  stage : stage;
  chosen_plan : plan;
  attempted : string list;  (** technique labels actually run, in order *)
}

val repair_learned :
  ?session:Specrepair_repair.Session.t ->
  ?profile:Llm.Model.profile ->
  ?stats:Learned.t ->
  ?top_k:int ->
  Llm.Task.t ->
  learned_outcome
(** Orders the runnable techniques (ATR, BeAFix and the full LLM panel —
    ARepair/ICEBAR need a test suite a bare task does not carry) by the
    statistics' expected value per millisecond for the task's defect
    class, then races the top [top_k] (default 3) sequentially under the
    session's single deadline: first success wins, expiry aborts the
    remainder.  Without statistics for the class — no [?stats], empty
    mining, unseen class — it falls back to the static {!repair},
    bit-identically (pinned by test). *)
