(** Universe construction and relation bounds.

    Every top-level signature gets a fixed pool of named atoms of the
    commanded scope; membership of each atom in each signature (top-level or
    sub-signature) is a fresh SAT variable, as is membership of each
    well-typed tuple in each field.  Symmetry is broken by forcing each
    top-level pool to be used in index order. *)

open Specrepair_sat
module Alloy = Specrepair_alloy

type scope = { default : int; overrides : (string * int) list }

val scope_of_command : Alloy.Ast.command -> scope

type t = {
  env : Alloy.Typecheck.env;
  solver : Solver.t;
  scope : scope;
  pools : (string * string list) list;  (** top-level sig -> atom pool *)
  universe : string list;
  atoms : string array;
      (** the universe in [String.compare] order: the atoms {!Matrix}
          codes index *)
  index : (string, int) Hashtbl.t;  (** atom name -> its index in [atoms] *)
  rel_vars : (string, (Alloy.Instance.Tuple.t * int) list) Hashtbl.t;
      (** per relation: tuple and its SAT variable *)
  matrices : (string, Matrix.t) Hashtbl.t;
      (** per relation, over the codes of [atoms] *)
  univ_matrix : Matrix.t;
  iden_matrix : Matrix.t;
}

val create : Solver.t -> Alloy.Typecheck.env -> scope -> t
(** Allocates variables in the solver and emits the symmetry-breaking
    clauses.  Child-signature scope overrides are emitted as constraints by
    {!Translate.assert_spec}, not here. *)

val relation : t -> string -> Matrix.t
(** Matrix of a signature or field; raises [Not_found] for unknown names. *)

val extract : t -> (int -> bool) -> Alloy.Instance.t
(** Reads an instance off a SAT model (given as the variable valuation). *)

val with_env : t -> Alloy.Typecheck.env -> t
(** The same bounds (solver variables, pools, matrices) viewed through a
    different type-checked spec.  Sound only when the new spec declares the
    same signatures and fields as the one the bounds were created from;
    {!Oracle} enforces this. *)
