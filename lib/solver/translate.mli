(** Compilation of Mini-Alloy expressions and formulas into boolean
    formulas over the bounds' SAT variables.

    Quantifiers are grounded over the (symbolic) contents of their bounding
    expression; predicate calls are inlined with parameters bound to the
    argument matrices. *)

open Specrepair_sat
module Alloy = Specrepair_alloy

exception Translate_error of string

type var_env = (string * Matrix.t) list
(** Quantified variables and predicate parameters in scope. *)

val fmla : Bounds.t -> var_env -> Alloy.Ast.fmla -> Formula.t

val spec_fmla : ?facts:Formula.t list -> Bounds.t -> Formula.t
(** Conjunction of all implicit constraints, explicit facts, and
    child-signature scope overrides.  [?facts] supplies the facts'
    translations, in declaration order, in place of {!fmla}'s. *)

val implicit_fmla : Bounds.t -> Formula.t
(** Only the implicit constraints and child-signature scope caps — the part
    of {!spec_fmla} that depends on the signature declarations and scope but
    not on the facts.  {!Oracle} asserts this once per solving context and
    guards each fact separately. *)

val pred_goal : Bounds.t -> Alloy.Ast.pred_decl -> Formula.t
(** Predicate body with parameters existentially quantified over their
    bounds (the goal of [run p]). *)
