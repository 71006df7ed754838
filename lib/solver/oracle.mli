(** The incremental repair oracle.

    A repair session evaluates hundreds of candidate specifications that
    differ from a shared base in exactly one or two constraint bodies.  A
    plain {!Analyzer} query builds a fresh solver, retranslates the entire
    spec, and discards all learned clauses on every call.  An [Oracle.t]
    instead keeps one solving context per command scope, in which

    - the immutable part of the translation (signature bounds, symmetry
      breaking, implicit constraints, child-sig scope caps) is asserted
      exactly once;
    - every candidate fact body and every goal formula is guarded by an
      activation literal ([act] implies [fmla], via Tseitin) and memoized by
      its pretty-printed digest, so unchanged formulas are translated once
      per session;
    - the Tseitin clausifier shares structurally equal definitions
      ({!Specrepair_sat.Tseitin.create_shared}), so a changed formula
      emits only the circuits the context does not already hold; and
    - each verdict query is a {!Specrepair_sat.Solver.solve} under the
      assumptions naming the candidate's facts and the goal, sharing one
      learned-clause database across the queries the context serves.

    Contexts are bounded: after a verdict query, a context holding more
    than three times the variables that query used (base plus the
    variables the assumed formulas added when they were translated) is
    retired, and the next query for its scope builds a fresh
    one.  Verdicts, outcomes and instances are unaffected.

    Before a verdict query reaches its context, the oracle tries what it
    already found in that scope: a stored assumption core the query's
    formulas contain answers [Unsat], and a stored model of the context's
    base (a witness) in which the candidate's facts and goal evaluate true
    answers [Sat].  At most 8 witnesses and 16 cores are kept per scope;
    they outlive context retirement and die with the oracle.

    On top of the incremental contexts sits a verdict cache keyed by the
    digest of the pretty-printed candidate (x command x scope x conflict
    budget).  Instance-producing queries read model streams: one solver
    per (spec, scope, goal), loaded exactly as {!Analyzer} loads one (the
    unshared encoding), with the models its solves found so far.  The
    instance of a [check] or [run {...}] command is the stream's first
    model and an enumeration of [k] instances its first [k], found by the
    same solves, in the same order, as a fresh {!Analyzer.enumerate}: the
    solver is deterministic, and a recorded solve answers a query only if
    it took fewer conflicts than the query's budget, below which a budget
    stops nothing.  Other queries are solved fresh.  So the models an
    oracle-backed session observes are bit-identical to the
    non-incremental pipeline — verdicts are solver-path-independent, first
    models are not.  [run p] instance queries, and every instance query
    of a certifying oracle, are fresh {!Analyzer.run_command} solves
    memoized by query.  The oracle keeps at most 8 streams, dropped
    together when full.

    Fact and goal translations are kept per scope and activation key (at
    most 4,096, dropped together when full) and shared by the contexts
    and streams of that scope: a context rebuilt after a retirement and a
    stream of a compatible candidate translate nothing the oracle has
    translated before.

    Candidates whose signature declarations differ from the base are
    detected and served by fresh, certified-when-certifying
    {!Analyzer.run_command} solves.  The repair engines never produce
    them (their edits change constraint bodies only), but a caller may
    pass any spec, and a session anchored on the empty spec
    ([Session.for_spec] on ill-typed input) sends
    every candidate there. *)

module Alloy = Specrepair_alloy

type t

type verdict = Analyzer.verdict

module Counters = Specrepair_json.Counters

val create : ?certify:bool -> Alloy.Typecheck.env -> t
(** A session keyed on the base spec's signature declarations.  Cheap: real
    work happens lazily, per scope, at the first query.

    With [~certify:true] every UNSAT verdict — the answer the repair study's
    "ok" and counterexample-free results rest on — is cross-checked by an
    independent DRUP proof checker ({!Specrepair_sat.Drat}): incremental
    contexts stream each learnt clause into a per-context checker as it is
    derived, and fresh fallback solves are checked from their recorded
    proofs.  Outcomes land in the [certified] / [certificate_failures]
    counters of {!stats}.  Certification roughly doubles solving cost;
    leave it off on hot paths and on for auditing runs.

    Every fresh solve, the sig-incompatible fallback included, is a plain
    {!Analyzer.run_command}.

    With [SPECREPAIR_NO_CACHE=1] in the environment when the oracle is
    created, it stores no witness, no core, no model stream and no
    translation: every verdict query that misses the verdict cache is
    solved, and instance queries are fresh solves memoized by query.  A
    certifying oracle never answers from a stored core. *)

val compatible : t -> Alloy.Typecheck.env -> bool
(** Does the candidate declare exactly the base's signatures and fields (so
    the shared variable allocation is sound for it)? *)

val spec_key : t -> Alloy.Ast.spec -> string
(** The digest the verdict, outcome and instance caches file a spec
    under.  It is built from per-declaration digests the oracle memoizes
    by physical identity (at most 1,024, dropped together when full), so
    a candidate sharing all but one declaration with a spec keyed before
    costs one lookup per shared declaration and one print of the other.
    Two specs get equal keys exactly when {!Alloy.Pretty.spec_to_string}
    prints them to the same bytes. *)

val command_verdict :
  ?max_conflicts:int -> t -> Alloy.Typecheck.env -> Alloy.Ast.command -> verdict
(** The outcome tag of {!Analyzer.run_command} on the candidate, without an
    instance: incremental, assumption-based, and cached.  This is the hot
    call of every candidate-evaluation inner loop.  Raises the same
    [Invalid_argument] as the analyzer on commands naming unknown
    predicates or assertions. *)

val run_command :
  ?max_conflicts:int ->
  t ->
  Alloy.Typecheck.env ->
  Alloy.Ast.command ->
  Analyzer.outcome
(** Like {!Analyzer.run_command} (instance included): the first element
    of the command's model stream, or a fresh solve for [run p] commands
    and certifying oracles; either way the instance the plain analyzer
    would return. *)

val enumerate :
  ?limit:int ->
  ?max_conflicts:int ->
  t ->
  Alloy.Typecheck.env ->
  Bounds.scope ->
  Alloy.Ast.fmla ->
  Alloy.Instance.t list
(** {!Analyzer.enumerate} read off the model stream of ([env], [scope],
    the formula): same instances, in the same order. *)

val stats : t -> Counters.t
(** Snapshot of the oracle's counters, schema ["oracle"]: cache hits and
    misses, fallback solves, translations, contexts (a gauge) and their
    retirements, certificates, clausifier definitions, key digests, the
    queries stored witnesses and cores answered, model streams opened,
    models read back from them, and translations reused.  An instance
    hit is a query answered without a solve.
    Each key is declared and described once, in oracle.ml. *)

val certified : Counters.key
val certificate_failures : Counters.key

val sat_stats : t -> Counters.t
(** Aggregate SAT-solver work under this oracle, schema ["sat"]: the
    lifetime search counters of every incremental context's solver, live
    or retired; every key is monotone.  Fresh solves are not counted. *)

val fresh_sat_stats : t -> Counters.t
(** The same search counters, schema ["sat_fresh"], of the oracle's fresh
    solves: model streams (charged per solve), the other instance queries
    and enumerations, and the sig-incompatible fallback. *)
