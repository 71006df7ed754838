(** Indexed max-heap over variables ordered by activity, in the style of
    MiniSat's [OrderHeap].  The heap stores variable indices; the comparison
    reads a caller-supplied activity lookup so activities can be bumped
    in place (callers must call {!decrease}/{!increase} after a change to
    restore heap order — with VSIDS bumping only increases occur). *)

type t

val create : activity:(int -> float) -> t
(** [create ~activity] is an empty heap whose order is given by [activity]. *)

val in_heap : t -> int -> bool
val insert : t -> int -> unit
(** Inserts a variable; no-op if already present. *)

val increase : t -> int -> unit
(** Notify that the activity of a present variable increased. *)

val remove_max : t -> int
(** Removes and returns the variable with the highest activity.
    Raises [Not_found] when empty. *)

val is_empty : t -> bool
val size : t -> int
