(** Boolean circuits over solver variables.

    This is the intermediate form produced by the relational compiler: each
    node is a boolean combination of primary variables (tuple-membership
    variables allocated in a {!Solver.t}).  Smart constructors perform local
    simplification ([and_ [] = tru], constant absorption, double-negation,
    flattening) so the compiler can combine matrices without special-casing
    constants.  Physical sharing of subterms is preserved and exploited by
    {!Tseitin}. *)

type t = private
  | True
  | False
  | Var of int  (** a solver variable *)
  | Not of t
  | And of t array
  | Or of t array
  | Iff of t * t
  | Ite of t * t * t  (** boolean if-then-else *)

val tru : t
val fls : t
val var : int -> t
val not_ : t -> t
val and_ : t list -> t
val or_ : t list -> t
val and2 : t -> t -> t
val or2 : t -> t -> t
val imp : t -> t -> t
val iff : t -> t -> t
val ite : t -> t -> t -> t

val is_true : t -> bool
val is_false : t -> bool

val eval : (int -> bool) -> t -> bool
(** [eval env f] evaluates [f] under the variable assignment [env]. *)

val size : t -> int
(** Number of nodes, counting shared subterms once. *)

val vars : t -> int list
(** Sorted list of distinct variables occurring in the formula. *)

module Phys_tbl : Hashtbl.S with type key = t
(** Hash table keyed on physical identity of formula nodes; used by
    {!Tseitin} to share definition variables across a DAG. *)
