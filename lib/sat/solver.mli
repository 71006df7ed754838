(** A CDCL SAT solver in the MiniSat lineage.

    Features: two-watched-literal propagation, first-UIP conflict analysis
    with clause learning, VSIDS variable activities with phase saving, Luby
    restarts, and activity-driven deletion of learnt clauses.  The solver is
    incremental: clauses may be added between [solve] calls and solving under
    assumptions is supported, which is how the model finder enumerates
    instances (blocking clauses) and the repair engines run equivalence
    queries. *)

type t

type result = Sat | Unsat | Unknown
(** [Unknown] is only returned when a conflict budget was given and
    exhausted. *)

val create : unit -> t

val new_var : t -> int
(** Allocates a fresh variable and returns its index. *)

val new_vars : t -> int -> int
(** [new_vars s n] allocates [n] fresh variables, returning the first index;
    the block is contiguous. *)

val n_vars : t -> int

val add_clause : t -> Lit.t list -> unit
(** Adds a clause.  Tautologies are dropped; duplicate and already-falsified
    (at level 0) literals are removed.  Adding an empty (or falsified unit)
    clause makes the solver permanently unsatisfiable. *)

val ok : t -> bool
(** [false] once the clause set is known unsatisfiable at level 0. *)

val solve : ?assumptions:Lit.t list -> ?max_conflicts:int -> t -> result
(** Determines satisfiability of the current clause set, optionally under
    [assumptions] (extra unit constraints local to this call) and within an
    optional conflict budget.

    Incremental contract: assumptions are enqueued as pseudo-decisions below
    the root level, so an [Unsat] answer caused by the assumptions does not
    poison the solver — [ok] stays [true], clauses learnt during the call
    persist, and the solver can be reused for further [solve] calls.  The
    conflict budget is local to each call (it bounds the conflicts of this
    call, not the lifetime total). *)

val unsat_assumptions : t -> Lit.t list
(** After [solve ~assumptions] returned [Unsat]: a subset of the assumptions
    sufficient for unsatisfiability together with the clause set (MiniSat's
    final-conflict analysis).  Empty when the clause set is unsatisfiable
    regardless of the assumptions.  Reset by the next [solve] call. *)

val value : t -> int -> bool
(** Model value of a variable; meaningful only after [solve] returned
    [Sat].  Unconstrained variables read as [false]. *)

val lit_value : t -> Lit.t -> bool
(** Model value of a literal after [Sat]. *)

val model : t -> bool array
(** Snapshot of the full model after [Sat]. *)

val root_units : t -> Lit.t list
(** Literals fixed at decision level 0 (permanently implied by the clause
    set), in trail order.  Useful between budgeted [solve] calls: an
    inprocessing loop harvests these as unit clauses before
    re-simplifying. *)

(** {2 Diversification}

    Knobs that change the order the search space is explored without
    changing the answer — the portfolio racer gives each worker a
    different configuration. *)

val set_restart_base : t -> int -> unit
(** Conflicts per Luby restart unit (default 100). *)

val randomize : t -> seed:int -> unit
(** Scrambles the saved phases and applies a small activity jitter,
    deterministically in [seed].  Call after loading clauses and before
    the first [solve]. *)

val set_on_restart : t -> (unit -> unit) option -> unit
(** Callback invoked at every restart boundary of a [solve] call; portfolio
    workers use it to emit protocol heartbeats from inside a long solve.
    Must not touch the solver. *)

(** {2 Proof logging} *)

val set_proof : t -> Proof.sink option -> unit
(** Installs (or, with [None], removes) a proof sink.  While installed, the
    solver reports every original clause as a {!Proof.Input} event and every
    derivation as a {!Proof.Step}: learnt clauses and final
    assumption-conflict clauses as [Add]s (the negated {!unsat_assumptions}
    core, so assumption-[Unsat] answers are checkable too), learnt-database
    evictions as [Delete]s, and the empty clause whenever the solver
    concludes root-level unsatisfiability.  The stream is a DRUP proof
    checkable by {!Drat}.  Install the sink before adding clauses: premises
    added earlier are never replayed.  With no sink the solver pays one
    [None] test per emission point and nothing else. *)

(** {2 Statistics} *)

val n_conflicts : t -> int
val n_decisions : t -> int
val n_propagations : t -> int
val n_learnts : t -> int

val n_restarts : t -> int
(** Restarts actually taken (Luby budget exhaustions), across all [solve]
    calls. *)

val n_reductions : t -> int
(** Times the learnt-clause database was reduced ([reduce_db] runs). *)
