(** Clausification of {!Formula.t} circuits into a {!Solver.t}.

    Uses the Tseitin transformation with memoisation, so formula DAGs
    produced by the relational compiler translate to linearly many clauses.
    The top level is treated specially: asserting a conjunction asserts each
    conjunct, and a top-level disjunction of literals becomes a single
    clause, avoiding needless definition variables.

    A clausifier made by {!create} shares definitions between physically
    equal nodes, for its whole lifetime, and allocates each definition
    variable before its children's (pre-order).  One made by
    {!create_shared} also shares them between structurally equal nodes: it
    first computes a node's children's literals, then looks the connective
    and those literals up in a table it owns, and defines a fresh variable
    only on a miss.  Its physical memo lasts one top-level {!lit_of} or
    {!assert_formula} call, since the structural table answers for every
    node defined before.  Both emit equivalences, so either is sound for
    any mix of guarded and unguarded formulas; they differ in variable
    numbering and clause order, and hence in which model a solver finds
    first. *)

type t

val create : Solver.t -> t
(** A clausifier writing into the given solver.  [Formula.Var v] refers to
    solver variable [v], which must already exist. *)

val create_shared : Solver.t -> t
(** Like {!create}, but sharing structurally equal definitions. *)

val lit_of : t -> Formula.t -> Lit.t
(** Returns a literal equivalent to the formula (introducing and defining a
    fresh variable when needed).  Raises [Invalid_argument] on the constants
    [True]/[False]; use {!assert_formula} for top-level constraints. *)

val assert_formula : t -> Formula.t -> unit
(** Adds clauses forcing the formula to hold. *)

val definitions : t -> int
(** Compound nodes the physical memo did not answer: each was either
    defined afresh or, under {!create_shared}, found in the structural
    table. *)

val definitions_shared : t -> int
(** Those of {!definitions} answered by an existing structurally equal
    definition; always 0 under {!create}. *)
