(** Cardinality constraints over boolean formulas.

    Builds sequential-counter circuits (Sinz 2005) expressing "at least /
    at most / exactly [k] of the inputs hold".  The result is an ordinary
    {!Formula.t}, so counters compose with the rest of a translation and
    share structure through {!Tseitin}.  Cost is O(n·k) nodes. *)

val at_least : int -> Formula.t list -> Formula.t
(** [at_least k fs] holds iff at least [k] of [fs] are true.
    [at_least 0 _] is [tru]. *)

val at_most : int -> Formula.t list -> Formula.t
(** [at_most k fs] holds iff at most [k] of [fs] are true. *)

val exactly : int -> Formula.t list -> Formula.t

val compare_const : [ `Lt | `Le | `Eq | `Ne | `Ge | `Gt ] -> Formula.t list -> int -> Formula.t
(** [compare_const op fs k] holds iff [|{f in fs | f}| op k]. *)
