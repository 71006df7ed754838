(** The analyzer: bounded model finding for Mini-Alloy, playing the role of
    the Alloy Analyzer in the study.

    [run] searches for an instance satisfying the facts plus a goal formula;
    [check] searches for a counterexample of an assertion.  All searches are
    bounded by the command scope and, optionally, a SAT conflict budget. *)

module Alloy = Specrepair_alloy

type outcome =
  | Sat of Alloy.Instance.t  (** witness instance / counterexample *)
  | Unsat
  | Unknown  (** conflict budget exhausted *)

type verdict = [ `Sat | `Unsat | `Unknown ]
(** An outcome without its instance — what verdict-only callers (the
    oracle's cache, the fuzzer's cross-checks) compare on. *)

val outcome_verdict : outcome -> verdict

val solve_fmla :
  ?proof:Specrepair_sat.Proof.sink ->
  ?max_conflicts:int ->
  Alloy.Typecheck.env ->
  Bounds.scope ->
  Alloy.Ast.fmla ->
  outcome
(** Satisfiability of [facts /\ implicit /\ f] within the scope.  With
    [?proof], the underlying solver logs its run — original clauses and
    derivations — to the sink, making UNSAT outcomes independently
    checkable (see {!Specrepair_sat.Drat}).  Every entry point solves
    the same way: one {!Specrepair_sat.Solver.t} loaded with the bounds,
    the spec formula and the goal, solved once. *)

val run_pred :
  ?proof:Specrepair_sat.Proof.sink ->
  ?max_conflicts:int ->
  Alloy.Typecheck.env ->
  Bounds.scope ->
  string ->
  outcome
(** [run p]: parameters are existentially quantified. *)

val check_assert :
  ?proof:Specrepair_sat.Proof.sink ->
  ?max_conflicts:int ->
  Alloy.Typecheck.env ->
  Bounds.scope ->
  string ->
  outcome
(** [check a]: [Sat inst] means [inst] is a counterexample. *)

val run_command :
  ?proof:Specrepair_sat.Proof.sink ->
  ?spent:(Specrepair_sat.Solver.t -> unit) ->
  ?max_conflicts:int ->
  Alloy.Typecheck.env ->
  Alloy.Ast.command ->
  outcome
(** The command's query: {!run_pred}, {!check_assert}, or {!solve_fmla} on
    a [run {...}] goal.  [?spent] is called with the solver once its
    search is over, so a caller can read its search counters. *)

val enumerate :
  ?limit:int ->
  ?spent:(Specrepair_sat.Solver.t -> unit) ->
  ?max_conflicts:int ->
  Alloy.Typecheck.env ->
  Bounds.scope ->
  Alloy.Ast.fmla ->
  Alloy.Instance.t list
(** Up to [limit] (default 10) distinct instances of [facts /\ f], found by
    adding blocking clauses over the primary variables.  [?spent] is called
    with the solver after the last search, as for {!run_command}. *)

val default_scope : Bounds.scope
(** Scope 3 with no overrides. *)
