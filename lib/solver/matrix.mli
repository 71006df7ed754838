(** Boolean matrices: relations whose tuple membership is a boolean formula
    over SAT variables (the Kodkod translation scheme).

    A matrix maps tuples to {!Specrepair_sat.Formula.t}; tuples absent from
    the map are definitely not in the relation.  All relational operators of
    Mini-Alloy are implemented pointwise on these matrices; comparison and
    multiplicity operators produce formulas.

    Tuples are codes over an interned universe of [n] atoms: atom [i] is the
    [i]th atom of the universe in [String.compare] order, and a tuple
    [(a_0, ..., a_(k-1))] of arity [k] is the mixed-radix number
    [a_0 n^(k-1) + ... + a_(k-1)], first column most significant.  Code
    order is therefore the lexicographic order of the atoms' names, the
    order of {!Specrepair_alloy.Instance.Tuple.compare}. *)

open Specrepair_sat

module Tuple_map : Map.S with type key = int

type t = { n : int; arity : int; cells : Formula.t Tuple_map.t }
(** [n] is the number of atoms of the universe the codes are over. *)

val size : n:int -> int -> int
(** [size ~n k] is [n^k], the number of tuples of arity [k]; raises
    [Invalid_argument] when it overflows an [int]. *)

val encode : n:int -> int array -> int
(** The code of a tuple of atom indices. *)

val decode : n:int -> int -> int -> int array
(** [decode ~n arity code]: the atom indices of a code. *)

val empty : n:int -> int -> t
val constant : n:int -> int -> int list -> t
(** Matrix with [tru] at each listed code. *)

val singleton : n:int -> int -> int -> t
(** [singleton ~n arity code]. *)

val of_cells : n:int -> int -> (int * Formula.t) list -> t
(** Duplicated codes are combined with disjunction; false cells dropped. *)

val head : t -> int -> int
(** The first atom of one of the matrix's codes. *)

val cell : t -> int -> Formula.t
val support : t -> (int * Formula.t) list
(** Non-false cells in code order. *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val join : t -> t -> t
val product : t -> t -> t
val transpose : t -> t
val closure : t -> t
(** Transitive closure by path doubling; requires arity 2. *)

val override : t -> t -> t
val dom_restrict : t -> t -> t
(** [dom_restrict s e]: tuples of [e] whose head is in the set [s]. *)

val ran_restrict : t -> t -> t

val ite : Formula.t -> t -> t -> t
(** Pointwise conditional. *)

val some : t -> Formula.t
val no : t -> Formula.t
val lone : t -> Formula.t
val one : t -> Formula.t
val subset : t -> t -> Formula.t
val equal : t -> t -> Formula.t
val card_compare :
  [ `Lt | `Le | `Eq | `Ne | `Ge | `Gt ] -> t -> int -> Formula.t
