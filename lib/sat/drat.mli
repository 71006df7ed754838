(** An independent DRUP proof checker.

    Verifies that every clause a proof adds is entailed by what precedes it
    — original CNF, earlier additions, minus deletions — by {e reverse unit
    propagation} (RUP): assume every literal of the clause false; if unit
    propagation then derives a conflict, the clause is implied.  First-UIP
    learnt clauses, the solver's final assumption-conflict clauses, and the
    empty clause are all RUP at their emission point, so a correct
    proof-logged run always checks; a proof with a gap (a dropped or
    corrupted step) is rejected with a step-indexed error.

    The checker is deliberately {e not} the solver: it has its own minimal
    two-watched-literal propagation over its own clause store and shares
    nothing with [Solver]'s trail, so a bug in the solver's propagation or
    learning cannot vouch for itself.

    The checker is incremental ({!create}/{!add_premise}/{!apply}): the
    oracle's certify mode mirrors a long-lived solver's stream step by
    step, paying each RUP check once, and asks {!refutes} at every UNSAT
    verdict.  {!check} and {!check_file} are one-shot conveniences on top.

    Trust story: premises are the CNF as given; every accepted [Add] is
    implied by the premises alone (assumption literals are {e never} used
    during step checking); {!refutes} then certifies "CNF ∧ assumptions is
    unsatisfiable" by pure unit propagation.  Deletions are unchecked
    performance hints, as in DRUP: root-level consequences of a deleted
    clause are retained, which cannot unsoundly accept (everything retained
    is still implied by the premises). *)

type t

val create : unit -> t

val add_premise : t -> Lit.t array -> unit
(** Registers an original clause.  Premises may arrive at any point in the
    stream (the incremental solver interleaves clause additions with
    solving); registering is never an error. *)

val apply : t -> Proof.step -> (unit, string) result
(** Processes one proof step: RUP-checks and installs an [Add], removes a
    [Delete].  Errors name the offense ("clause is not RUP", "delete of
    unknown clause").  After an error the state is unchanged and further
    steps may still be applied. *)

val refutes : t -> Lit.t list -> bool
(** [refutes t assumptions]: does the current clause store propagate to a
    conflict once the assumption literals are asserted?  With [[]] this
    asks whether the empty clause has effectively been derived — the
    certificate of an unconditional UNSAT. *)

(** {2 One-shot checking} *)

val check :
  ?assumptions:Lit.t list ->
  ?require_conflict:bool ->
  premises:Lit.t array list ->
  Proof.step Seq.t ->
  (unit, string) result
(** Applies every step in order over the premises.  With [require_conflict]
    (the default) the final store must refute the assumptions (default
    [[]]); [~require_conflict:false] only validates the derivations, which
    is the meaningful check for a satisfiable run's proof log.  Errors are
    prefixed with the 1-based step index. *)

val check_file :
  ?assumptions:Lit.t list ->
  ?require_conflict:bool ->
  cnf:Dimacs.cnf ->
  format:Proof.format ->
  string ->
  (unit, string) result
(** Streams a proof file against a DIMACS CNF without materializing the
    step list; file-system and parse errors are reported as [Error]. *)
