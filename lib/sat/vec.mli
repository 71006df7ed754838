(** Growable arrays (OCaml 5.1 predates [Dynarray], so we provide our own).

    Elements are stored contiguously; [push] is amortised O(1).  The vector
    keeps a dummy element to fill unused capacity, supplied at creation. *)

type 'a t

val create : dummy:'a -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a
(** Removes and returns the last element.  Raises [Invalid_argument] when
    empty. *)

val last : 'a t -> 'a
val clear : 'a t -> unit
val shrink : 'a t -> int -> unit
(** [shrink v n] truncates [v] to its first [n] elements. *)

val iter : ('a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val exists : ('a -> bool) -> 'a t -> bool
val to_list : 'a t -> 'a list
val of_list : dummy:'a -> 'a list -> 'a t
val copy : 'a t -> 'a t

val swap_remove : 'a t -> int -> unit
(** [swap_remove v i] removes element [i] by moving the last element into its
    place; O(1), does not preserve order. *)
