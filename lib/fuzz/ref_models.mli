(** Reference bounded model finder: exhaustive enumeration of the instance
    space checked by direct evaluation.

    Where {!Specrepair_solver.Analyzer} compiles to CNF and runs CDCL, this
    oracle walks every assignment of the {!Space} bits and asks
    {!Specrepair_alloy.Eval} whether facts, implicit constraints, scope caps
    and the goal hold.  Exponential, so only usable on the tiny
    specifications the fuzzer generates — which is exactly the
    bounded-exhaustive ground-truth technique the repair literature leans
    on. *)

module Alloy = Specrepair_alloy

type verdict =
  | Found of Alloy.Instance.t  (** first satisfying instance in mask order *)
  | No_instance
  | Too_big  (** space exceeds [max_bits]; caller should skip the check *)

val find :
  ?max_bits:int ->
  Alloy.Typecheck.env ->
  Specrepair_solver.Bounds.scope ->
  Alloy.Ast.fmla ->
  verdict
(** Is there an instance within scope satisfying
    [implicit /\ facts /\ caps /\ goal]?  Symmetry breaking on the SAT side
    removes only isomorphic models (specifications cannot name atoms), so
    [Found]/[No_instance] must agree exactly with the analyzer's
    [Sat]/[Unsat]. *)
