(** The repair session: one instrumented context threaded through every
    repair technique.

    A [Session.t] bundles everything a run of any engine needs — the
    incremental solving {!Specrepair_solver.Oracle.t}, the search {!budget},
    the deterministic RNG seed, an optional wall-clock {e deadline} on the
    monotonic clock, and a {!Telemetry.t} sink — replacing the
    [?oracle]/[?seed]/[?budget]/[?max_conflicts] optional-argument sprawl of
    the earlier entry points.

    {b Deadline semantics.}  Enforcement is cooperative: engines poll
    {!expired} at every candidate-evaluation boundary and, once the deadline
    has passed, abort the search and return their current best-effort
    result with the [timed_out] flag set (they never hang and never raise).
    The first observation of expiry latches: all later polls — including
    from derived sessions ({!with_budget}) and across portfolio stages —
    answer [true] without reading the clock.  A session without a deadline
    never expires and never reads the clock on the poll path.

    {b Sharing.}  One session may span several engines (the portfolio runs
    ATR and Multi-Round in a single session) and nested invocations (ICEBAR
    derives an inner ARepair session with {!with_budget}); oracle, telemetry
    and the expiry latch are shared, so counters aggregate across stages
    and a deadline cuts the whole pipeline, not just one stage. *)

module Alloy = Specrepair_alloy
module Solver = Specrepair_solver
module Space = Specrepair_mutation.Space

type budget = {
  max_depth : int;  (** greedy / composition depth *)
  max_candidates : int;  (** candidates evaluated in one invocation *)
  max_iterations : int;  (** outer refinement rounds (ICEBAR) *)
  max_conflicts : int;  (** SAT conflict budget per analyzer call *)
  locations : int;  (** suspicious locations explored *)
  use_pool : bool;
      (** may the search synthesize replacement expressions / added juncts?
          ARepair's original space lacked them *)
}

val default_budget : budget

type t

val create :
  ?oracle:Solver.Oracle.t ->
  ?certify:bool ->
  ?simplify:bool ->
  ?portfolio:int ->
  ?budget:budget ->
  ?seed:int ->
  ?deadline_ms:float ->
  ?spaces:Space.store ->
  Alloy.Typecheck.env ->
  t
(** A fresh session for [env].  Without [?oracle] a new incremental oracle
    is created from [env] (cheap; real work is lazy).  With [~certify:true]
    (default [false]) that oracle cross-checks every UNSAT verdict against
    an independent DRUP proof checker and reports each outcome into the
    session's telemetry ([certified_unsat] / [certificate_failures]);
    ignored when an explicit [?oracle] is supplied — configure certification
    on the oracle itself in that case.  [~simplify:true] and [~portfolio:n]
    configure the created oracle's verdict-only fresh solves (see
    {!Specrepair_solver.Oracle.create}); like [certify], they are ignored
    when an explicit [?oracle] is supplied.  [?deadline_ms] is relative to
    now on the monotonic clock; omitted means no deadline.  [?spaces] is
    the store the LLM pipelines look their proposal spaces up in (see
    {!spaces}); omitted means a fresh, empty one.  Default budget
    {!default_budget}, default seed 42. *)

val for_spec :
  ?oracle:Solver.Oracle.t ->
  ?certify:bool ->
  ?simplify:bool ->
  ?portfolio:int ->
  ?budget:budget ->
  ?seed:int ->
  ?deadline_ms:float ->
  Alloy.Ast.spec ->
  t
(** Like {!create} but from a bare spec: if it does not type-check (possible
    for LLM-written inputs) the session is anchored on the empty spec, whose
    oracle serves every query by transparent fresh-solve fallback. *)

val with_budget : t -> (budget -> budget) -> t
(** A derived session with a transformed budget; oracle, telemetry, seed,
    deadline, space store and the expiry latch remain shared with the
    parent. *)

(** {2 Components} *)

val budget : t -> budget
val seed : t -> int
val telemetry : t -> Telemetry.t

val spaces : t -> Space.store
(** The mutation-space store the LLM pipelines pass to every proposal
    build ({!Specrepair_mutation.Space}: at most two spaces, least
    recently used evicted first).  A session owns a fresh store unless
    {!create} was given one; the study gives every row of a domain that
    domain's store, so a variant's LLM rows share their faulty spec's
    space and a Multi-Round dialogue's rounds share their base's. *)

(** {2 Deadline} *)

val expired : t -> bool
(** Has the deadline passed?  Latches on first observation; counted in
    telemetry as a deadline check.  Always [false] without a deadline. *)

val timed_out : t -> bool
(** Has {!expired} ever answered [true]?  Does not read the clock. *)

(** {2 Clock} *)

val now_ns : unit -> int64
(** The monotonic clock, in nanoseconds. *)

val elapsed_ms : t -> float
(** Monotonic wall-clock milliseconds since session creation, or up to
    {!stop_clock} once that has been called. *)

val stop_clock : t -> unit
(** Freezes {!elapsed_ms} (and so the [elapsed_ms] of {!telemetry_json})
    at its current value, for work done after the session's own: a study
    row scores its result after the engine returns, and that time belongs
    to neither the row's [time_ms] nor its telemetry line.  Idempotent;
    shared with derived sessions; deadlines are unaffected. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** [time t phase f] runs [f] and adds its wall-clock duration to the
    telemetry phase timer [phase] (also on exception). *)

(** {2 Instrumented oracle queries}

    Thin wrappers over {!Specrepair_solver.Oracle} that record telemetry.
    [?max_conflicts] is passed through verbatim — deliberately not defaulted
    from the budget, so each call site keeps the exact conflict budget (or
    unlimited solve) it had before sessions existed. *)

val command_verdict :
  ?max_conflicts:int ->
  t ->
  Alloy.Typecheck.env ->
  Alloy.Ast.command ->
  Solver.Oracle.verdict

val run_command :
  ?max_conflicts:int ->
  t ->
  Alloy.Typecheck.env ->
  Alloy.Ast.command ->
  Solver.Analyzer.outcome

val enumerate :
  ?limit:int ->
  ?max_conflicts:int ->
  t ->
  Alloy.Typecheck.env ->
  Solver.Bounds.scope ->
  Alloy.Ast.fmla ->
  Alloy.Instance.t list

(** {2 Reporting} *)

val oracle_stats : t -> Solver.Oracle.stats
(** Oracle counters accumulated {e during this session}: the delta against
    the snapshot taken at session creation (relevant when the oracle is
    shared across sessions, as in the study).  [contexts] is a gauge and is
    reported absolute. *)

val sat_stats : t -> Solver.Oracle.sat_stats
(** SAT-solver work accumulated during this session (same delta semantics
    as {!oracle_stats}): conflicts, decisions, propagations, restarts and
    learnt-database reductions across the oracle's solvers, plus the
    simplifier's subsumed / strengthened / vivified / eliminated counters
    when simplification is enabled. *)

val eval_stats : t -> Alloy.Eval.counters
(** Evaluator work during this session (delta of the process-wide
    {!Alloy.Eval.counters}): implicit-constraint and fact verdicts
    evaluated, and those the instances' memos replayed. *)

val space_stats : t -> Space.stats
(** Space-store work during this session (delta of {!spaces}'s counters,
    which may span sessions): spaces built, lookups answered from the
    store, and evictions.  Every proposal build looks its space up once,
    so [built + reused] is the session's [proposal_builds]. *)

val telemetry_json : ?extra:(string * string) list -> t -> string
(** One-line JSON object: [extra] string fields first, then
    [elapsed_ms], [timed_out], the {!Telemetry.t} counters, the per-phase
    timers, the session-relative oracle stats, a ["sat"] object with the
    {!sat_stats} solver counters, an ["eval"] object with the
    {!eval_stats} counters, and a ["spaces"] object with the
    {!space_stats} counters.  Schema documented in DESIGN.md. *)
