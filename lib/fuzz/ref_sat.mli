(** Independent reference SAT checker: recursive DPLL with unit propagation
    and nothing else — no watched literals, no learning, no heuristics.

    Deliberately shares no code with {!Specrepair_sat.Solver}; on the small
    formulas the fuzzer generates it is fast enough and its simplicity is
    the point: a disagreement between the two implicates the CDCL solver
    with high probability.

    Test hook: when the environment variable [SPECREPAIR_FUZZ_CHAOS] is set
    to ["drop-clause"], the checker silently ignores the last clause of
    every problem.  This deliberately corrupts the reference so the harness,
    shrinker and corpus paths can be exercised end to end; it must never be
    set outside tests. *)

open Specrepair_sat

type result = Sat of bool array | Unsat

val solve : ?assumptions:Lit.t list -> Dimacs.cnf -> result
(** Complete (no budget): always answers.  The model array covers
    [cnf.num_vars] variables, unconstrained ones read [false]. *)
