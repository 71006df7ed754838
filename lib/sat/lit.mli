(** Propositional literals.

    A variable is a non-negative integer; a literal packs a variable and a
    sign into a single integer ([2 * var] for the positive literal,
    [2 * var + 1] for the negative one).  This encoding is shared by the
    solver, the Tseitin transformer, and the DIMACS reader/writer. *)

type t = private int

val pos : int -> t
(** [pos v] is the positive literal of variable [v].  Raises
    [Invalid_argument] if [v < 0]. *)

val neg : int -> t
(** [neg v] is the negative literal of variable [v]. *)

val make : int -> bool -> t
(** [make v sign] is [pos v] when [sign] and [neg v] otherwise. *)

val var : t -> int
(** Variable of a literal. *)

val sign : t -> bool
(** [sign l] is [true] for positive literals. *)

val negate : t -> t
(** Complement literal. *)

val to_int : t -> int
(** Raw encoded value (used as an array index by the solver). *)

val of_int : int -> t
(** Inverse of {!to_int}.  Raises [Invalid_argument] on negative input. *)

val to_dimacs : t -> int
(** Signed DIMACS form: variable index plus one, negated when negative. *)

val of_dimacs : int -> t
(** Inverse of {!to_dimacs}.  Raises [Invalid_argument] on zero. *)

val equal : t -> t -> bool
