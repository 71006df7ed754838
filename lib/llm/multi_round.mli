(** The Multi-Round LLM repair pipeline (Alhanahnah et al. [34]): a
    dual-agent loop in which the Repair Agent proposes a fix, the analyzer
    evaluates it, and — depending on the feedback setting — the next round
    is steered by nothing but a binary verdict (No-feedback), a templated
    summary of the analyzer report (Generic), or a Prompt Agent that turns
    the report and the proposed spec into targeted advice (Auto). *)

module Alloy = Specrepair_alloy
module Common = Specrepair_repair.Common
module Session = Specrepair_repair.Session

type feedback = No_feedback | Generic | Auto

val all_feedbacks : feedback list

val tool_name : feedback -> string
(** "Multi-Round_None" etc., as in the paper's tables. *)

val repair :
  ?session:Session.t ->
  ?profile:Model.profile ->
  ?rounds:int ->
  ?hill_climb:bool ->
  ?mental_check:bool ->
  ?trace:(round:int -> prompt:Prompt.t -> response:string -> unit) ->
  Task.t ->
  feedback ->
  Common.result
(** [repaired] is the analyzer's confirmation that every command of the
    proposed spec behaves (checks pass, runs are satisfiable).  Default 6
    rounds.  [hill_climb] (default true) lets the dialogue carry the best
    proposal so far as the next round's base; [mental_check] (default true)
    enables the Repair Agent's internal scope-2 self-verification.  Both
    exist for the ablation benchmarks.  [trace] observes every round's
    rendered prompt (including the analyzer feedback text) and the model's
    raw response.  Without [?session] a default one is built from the
    faulty spec ({!Session.for_spec}); the session provides the RNG seed,
    the analyzer conflict budget, the shared incremental oracle, and a
    deadline that aborts the dialogue between rounds. *)
