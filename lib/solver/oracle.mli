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

    On top of the incremental contexts sit structural caches keyed by the
    digest of the pretty-printed candidate (x command x scope x conflict
    budget): a verdict cache for sat/unsat answers and an instance cache for
    witness/counterexample queries.  Instance-producing queries always run
    on a fresh, {!Analyzer}-identical solve (then memoized), so the models
    an oracle-backed session observes are bit-identical to the
    non-incremental pipeline — verdicts are solver-path-independent, first
    models are not.

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
    {!Analyzer.run_command}. *)

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
(** Like {!Analyzer.run_command} (instance included) but memoized on the
    candidate digest.  The solve is fresh, so the instance is the one the
    plain analyzer would return. *)

val enumerate :
  ?limit:int ->
  ?max_conflicts:int ->
  t ->
  Alloy.Typecheck.env ->
  Bounds.scope ->
  Alloy.Ast.fmla ->
  Alloy.Instance.t list
(** Memoized {!Analyzer.enumerate}: same instances, in the same order. *)

val stats : t -> Counters.t
(** Snapshot of the oracle's counters, schema ["oracle"]: cache hits and
    misses, fallback solves, translations, contexts (a gauge) and their
    retirements, certificates, clausifier definitions and key digests.
    Each key is declared and described once, in oracle.ml. *)

val certified : Counters.key
val certificate_failures : Counters.key

val sat_stats : t -> Counters.t
(** Aggregate SAT-solver work under this oracle, schema ["sat"]: the
    lifetime search counters of every incremental context's solver, live
    or retired; every key is monotone.  Fresh solves are not counted. *)
