(** Deterministic pseudo-random numbers (splitmix64).

    Every stochastic choice of the simulated LLM derives its stream from a
    study seed plus structured context (spec id, technique, round), so runs
    are reproducible bit-for-bit and independent across specs. *)

type t

val create : int64 -> t
val of_context : seed:int -> string list -> t
(** Derive a generator from the study seed and a context path, e.g.
    [["classroom_17"; "single-round"; "loc"]]. *)

val next_int64 : t -> int64
val float : t -> float
(** Uniform in [0, 1). *)

val int : t -> int -> int
(** Uniform in [0, n). *)

type 'a sampler
(** A weighted list prepared for repeated draws: its weights (negatives
    clamped to zero) summed once into a prefix table. *)

val sampler : ('a * float) list -> 'a sampler

val of_prefix : 'a array -> float array -> 'a sampler
(** [of_prefix items prefix] is the sampler whose [i]th prefix sum is
    [prefix.(i)]: for weights [w] it equals [sampler] over
    [(items.(i), w.(i))] when [prefix] holds their running sums, clamped
    and added left to right as {!sampler} adds them.  Both arrays are
    shared, not copied.  Raises [Invalid_argument] when their lengths
    differ. *)

val draw : t -> 'a sampler -> 'a option
(** Samples proportionally to the weights in O(log n); [None] when all
    weights are zero or the list is empty.  Draws exactly the item, and
    leaves the generator in exactly the state, of a linear scan over the
    list. *)

val choose_weighted : t -> ('a * float) list -> 'a option
(** One draw from a one-shot {!sampler}. *)

val shuffle : t -> 'a list -> 'a list
