(** The Repair (REP) metric: command-outcome equisatisfiability against the
    ground truth, exactly as defined in the study — every command of the
    ground-truth specification is executed (via the analyzer) against both
    the ground truth and the proposed fix; REP is 1 iff all outcomes agree.

    A proposed fix that fails to type-check, lacks a predicate or assertion
    named by a ground-truth command, or drives the analyzer to an Unknown
    outcome scores 0. *)

module Alloy = Specrepair_alloy

val rep_with :
  verdict:
    (Alloy.Typecheck.env ->
    Alloy.Ast.command ->
    Specrepair_solver.Analyzer.verdict) ->
  ground_truth:Alloy.Ast.spec ->
  candidate:Alloy.Ast.spec ->
  bool
(** REP with the command outcomes supplied by [verdict], called on the
    ground truth's env and then the candidate's, command by command, in
    the ground truth's command order.  Any provider whose verdicts agree
    with the analyzer's gives {!rep}'s answer; the study passes its
    domain oracle's {!Specrepair_solver.Oracle.command_verdict}. *)

val rep :
  ?max_conflicts:int ->
  ground_truth:Alloy.Ast.spec ->
  candidate:Alloy.Ast.spec ->
  unit ->
  bool
(** {!rep_with} on fresh {!Specrepair_solver.Analyzer.run_command}
    outcomes: the reference implementation. *)

val rep_score :
  ?max_conflicts:int ->
  ground_truth:Alloy.Ast.spec ->
  candidate:Alloy.Ast.spec ->
  unit ->
  int
(** 1 / 0 form used in the tables. *)

val equivalent_constraints :
  ?max_conflicts:int ->
  scope:Specrepair_solver.Bounds.scope ->
  ground_truth:Alloy.Ast.spec ->
  candidate:Alloy.Ast.spec ->
  unit ->
  bool option
(** A stronger check than the paper's REP (provided as an extension): are
    the fact conjunctions of the two specs equivalent within the scope?
    Requires identical signature/field declarations; [None] when they
    differ or when the analyzer is inconclusive. *)
