(** Addressing of AST nodes inside a specification.

    A {!site} names a constraint body (fact, predicate, or assertion); a
    {!path} descends from that body through child indices.  Children are
    ordered as follows: binary nodes are [left; right]; quantifiers list
    their declaration bounds first, then the body; expression conditionals
    are [condition; then; else]. *)

module Ast = Specrepair_alloy.Ast

type site = Fact_site of int | Pred_site of string | Assert_site of string
type path = int list
type node = F of Ast.fmla | E of Ast.expr

val site_to_string : site -> string
val path_to_string : path -> string

val sites : Ast.spec -> site list
(** All constraint bodies, facts first, in declaration order. *)

val body : Ast.spec -> site -> Ast.fmla
(** Raises [Not_found] if the site does not exist. *)

val with_body : Ast.spec -> site -> Ast.fmla -> Ast.spec

val subnodes : Ast.fmla -> (path * node) list
(** Preorder traversal of a body, the root at path []. *)

val get : Ast.fmla -> path -> node
(** Raises [Not_found] on a dangling path. *)

val replace : Ast.fmla -> path -> node -> Ast.fmla
(** Raises [Not_found] on a dangling path and [Invalid_argument] when the
    node kind (formula vs expression) does not match the position. *)

val vars_at :
  Specrepair_alloy.Typecheck.env -> Ast.spec -> site -> path -> (string * int) list
(** Variables in scope at a position: predicate parameters and the
    quantified variables of enclosing binders (each of arity 1).  Bounds of
    a declaration see only the declarations before it. *)

val node_size : node -> int
