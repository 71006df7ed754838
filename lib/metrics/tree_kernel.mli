(** Subtree-kernel similarity between parse trees (Collins & Duffy style
    subset-tree kernel) — the Syntax Match (SM) metric of the study.

    Specifications are rendered as labeled ordered trees (whitespace and
    formatting are irrelevant by construction); the kernel counts common
    subset trees with a decay factor and is normalised so identical trees
    score 1 and structurally disjoint trees score ~0. *)

type tree = Node of string * tree list

val of_fmla : Specrepair_alloy.Ast.fmla -> tree

val similarity : ?decay:float -> tree -> tree -> float
(** Normalised: [kernel a b / sqrt (kernel a a *. kernel b b)], in [0, 1]. *)

val syntax_match : Specrepair_alloy.Ast.spec -> Specrepair_alloy.Ast.spec -> float
(** [similarity] of the two parse trees (decay 0.2 — small enough that
    the kernel's diagonal dominance does not crush single-edit distances). *)
