(** Proof-preserving CNF simplification and inprocessing.

    Implements the classic preprocessor triad — occurrence-list subsumption
    with self-subsuming resolution, clause vivification, and bounded
    variable elimination — with every transformation logged through a
    {!Proof.sink} as DRUP [Add]/[Delete] steps that {!Drat} accepts:
    strengthened clauses and resolvents are added {e before} their parents
    are deleted, so each [Add] is RUP against the checker's live database.
    Variable elimination stacks the deleted parent clauses; {!type-outcome}'s
    [reconstruct] replays the stack in reverse to extend a model of the
    simplified formula to the original variables. *)

type config = {
  sweeps : int;  (** fixpoint sweeps per simplification call *)
  bve_max_occ : int;
      (** eliminate only variables with at most this many occurrences of
          each polarity *)
  bve_growth : int;  (** tolerated resolvent surplus over deleted clauses *)
  vivify_budget : int;  (** propagation steps spent vivifying, per sweep *)
  inprocess_rounds : int;
      (** solve/simplify interleavings in {!val-solve}; the last round runs
          with the remaining conflict budget *)
  first_chunk : int;  (** conflict budget of the first inprocessing chunk *)
}

val default : config

type stats = {
  mutable subsumed : int;
  mutable strengthened : int;  (** self-subsuming resolutions *)
  mutable vivified : int;  (** literals removed by vivification *)
  mutable eliminated : int;  (** variables eliminated *)
  mutable sweeps_run : int;
}

type outcome = {
  cnf : Dimacs.cnf;  (** the simplified clause set, over the same variables *)
  unsat : bool;  (** simplification alone refuted the formula *)
  reconstruct : bool array -> bool array;
      (** extends a model of [cnf] to a model of the input formula,
          restoring eliminated variables *)
  stats : stats;
}

val simplify :
  ?proof:Proof.sink ->
  ?frozen:int list ->
  ?config:config ->
  Dimacs.cnf ->
  outcome
(** One preprocessing run.  [frozen] variables are never eliminated (use
    for assumption/activation variables that must survive).  The sink, when
    given, receives only [Step] events — the caller owns the premises. *)

(** {2 Inprocessing solve driver} *)

type solve_result = {
  result : Solver.result;
  model : bool array option;
      (** on [Sat]: a model over the original variables (reconstructed) *)
  sstats : stats;  (** simplification totals across all rounds *)
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  reductions : int;
}

val solve :
  ?proof:Proof.sink ->
  ?config:config ->
  ?max_conflicts:int ->
  ?on_restart:(unit -> unit) ->
  Dimacs.cnf ->
  solve_result
(** Simplify, solve in conflict-budgeted chunks, and between chunks harvest
    root-implied units and re-simplify (periodic inprocessing).  The proof
    stream stays a single checkable DRUP derivation: inner solvers are
    loaded with their [Input] events suppressed (the clauses are already in
    the stream as premises or [Add]s), and harvested units are re-emitted
    as [Add]s, which are RUP by root propagation.  [on_restart] is invoked
    at solver restarts and between rounds (portfolio heartbeats). *)
