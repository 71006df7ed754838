(** Deterministic generators for hard benchmark CNFs, shared by the bench
    harness, the tests and the fuzz corpus. *)

val pigeonhole : int -> Dimacs.cnf
(** [pigeonhole n] encodes "n+1 pigeons in n holes" — unsatisfiable, with
    resolution proofs exponential in [n].  Variable [p*n + h] means pigeon
    [p] sits in hole [h]. *)

val random_3sat : seed:int -> num_vars:int -> num_clauses:int -> Dimacs.cnf
(** Uniform random 3-SAT; at a clause/variable ratio near 4.26 the
    instances sit at the satisfiability phase transition, where both SAT
    and UNSAT answers are expensive.  Deterministic in [seed]. *)
