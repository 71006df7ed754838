(** Random well-typed inputs for the differential fuzzer.

    Everything is a deterministic function of the {!Rng} stream it is
    handed.  Specification generation reuses the mutation engine's typed
    expression pool ({!Specrepair_mutation.Pool}) for leaf expressions and
    atomic formulas, so generated constraints range over the same grammar
    the repair tools search. *)

open Specrepair_sat
module Alloy = Specrepair_alloy

val cnf : Rng.t -> Dimacs.cnf
(** 1–10 variables, 0–35 clauses of 1–4 literals. *)

val assumptions : Rng.t -> num_vars:int -> Lit.t list
(** 0–3 assumption literals over the problem's variables. *)

val spec : ?with_commands:bool -> Rng.t -> Alloy.Typecheck.env
(** A small type-checked specification: 1–2 top-level signatures, an
    optional subsignature, 0–2 binary fields, 0–2 facts, an optional
    predicate and assertion.  With [with_commands], 1–2 run/check commands
    are attached (the shape the oracle target needs). *)

val scope :
  ?child_caps:bool -> Rng.t -> Alloy.Typecheck.env -> Specrepair_solver.Bounds.scope
(** Default scope 1–2 with occasional top-signature overrides and (unless
    [child_caps] is [false]) child-signature caps. *)

val fmla :
  Rng.t ->
  Alloy.Typecheck.env ->
  vars:(string * int) list ->
  depth:int ->
  Alloy.Ast.fmla
(** A well-typed formula: pool atoms and cardinality tests under random
    connectives and quantifiers; calls the spec's predicate when one
    exists. *)

val instance : Rng.t -> Specrepair_solver.Bounds.t -> Alloy.Instance.t
(** A random instance within the bounds' cell space.  Respects [extends]
    containment (a subsignature's atoms are drawn from its parent's) so
    that [Univ] agrees between the evaluator and the translation; all other
    implicit constraints are deliberately left to chance. *)
