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
module Counters = Specrepair_json.Counters

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
  ?budget:budget ->
  ?seed:int ->
  ?deadline_ms:float ->
  ?spaces:Space.store ->
  Alloy.Typecheck.env ->
  t
(** A fresh session for [env].  Without [?oracle] a new incremental oracle
    is created from [env] (cheap; real work is lazy).  With [~certify:true]
    (default [false]) that oracle cross-checks every UNSAT verdict against
    an independent DRUP proof checker, counting each outcome in the
    oracle's [certified] / [certificate_failures] (a telemetry line also
    prints them as [certified_unsat] / [certificate_failures]); ignored
    when an explicit [?oracle] is supplied — configure certification on
    the oracle itself in that case.  [?deadline_ms] is relative to
    now on the monotonic clock; omitted means no deadline.  [?spaces] is
    the store the LLM pipelines look their proposal spaces up in (see
    {!spaces}); omitted means a fresh, empty one.  Default budget
    {!default_budget}, default seed 42. *)

val for_spec :
  ?oracle:Solver.Oracle.t ->
  ?certify:bool ->
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
    build and BeAFix reads its depth-1 candidate list from
    ({!Specrepair_mutation.Space}: at most two spaces and two lists,
    least recently used evicted first).  A session owns a fresh store
    unless {!create} was given one; the study gives every row of a
    domain that domain's store, so a variant's LLM rows share their
    faulty spec's space and a Multi-Round dialogue's rounds share their
    base's; a serve registry entry gives every request on its spec the
    entry's store, so a warm BeAFix request reuses its list. *)

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
(** Runs the {!defer}red work, then freezes {!elapsed_ms} (and so the
    [elapsed_ms] of {!telemetry_json}) at its current value, for work
    done after the session's own: a study row scores its result after
    the engine returns, and that time belongs to neither the row's
    [time_ms] nor its telemetry line.  Idempotent; shared with derived
    sessions; deadlines are unaffected. *)

val defer : t -> (unit -> unit) -> unit
(** [defer t f] runs [f] once, at the first {!stop_clock} or
    {!telemetry_json} after this call, in the order deferred, and never
    if neither comes.  It is for telemetry that costs work the repair
    does not need: BeAFix defers counting its candidate list
    ([candidates_generated], [pool_peak]), because the count builds
    every pool replacement, so a [serve] request, which reports neither
    counter, skips that work.  Shared with derived sessions. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** [time t phase f] runs [f] and adds its wall-clock duration to the
    telemetry phase timer [phase] (also on exception). *)

val phases : t -> (string * float) list
(** Phase timers in milliseconds, sorted by name; shared with derived
    sessions. *)

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

val deltas : t -> Counters.t list
(** The counters accumulated {e during this session}, one set per schema,
    in telemetry-line order: the oracle's ({!Solver.Oracle.stats}), the
    SAT work of its verdict contexts ({!Solver.Oracle.sat_stats}) and of
    its fresh solves ({!Solver.Oracle.fresh_sat_stats}), the evaluator's
    ({!Alloy.Eval.counters}) and the space store's ({!Space.stats}).
    Each is the difference against a snapshot taken at session creation
    (the oracle and the store may be shared across sessions, as in the
    study; the evaluator's totals are process-wide); gauges, such as the
    oracle's [contexts], are reported as they are. *)

val telemetry_json : ?extra:(string * string) list -> t -> string
(** Runs the {!defer}red work, then renders a one-line JSON object:
    [extra] string fields first, then
    [elapsed_ms], [timed_out], [solver_queries], the {!Telemetry.t}
    counters, the oracle delta's certificate counts as [certified_unsat]
    and [certificate_failures], one object per set of {!deltas} under its
    schema's name, and the {!phases} timers.  Schema documented in
    DESIGN.md. *)
