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

    Candidates whose signature declarations differ from the base (possible
    for LLM-written candidates, never for mutation-based ones) are detected
    and served by fresh solves transparently. *)

module Alloy = Specrepair_alloy

type t

type verdict = Analyzer.verdict

type stats = {
  verdict_hits : int;  (** verdict served from the structural cache *)
  verdict_misses : int;  (** incremental assumption solves performed *)
  instance_hits : int;  (** instance lists served from the cache *)
  instance_misses : int;  (** fresh enumeration solves performed *)
  fallback_queries : int;  (** sig-incompatible candidates, fresh-solved *)
  formulas_translated : int;  (** guarded translations performed *)
  formulas_reused : int;  (** activation literals served from memo *)
  contexts : int;
      (** live solving contexts (at most one per distinct scope); a gauge *)
  contexts_retired : int;
      (** contexts dropped for outgrowing their queries *)
  certified : int;  (** UNSAT verdicts accepted by the proof checker *)
  certificate_failures : int;
      (** UNSAT verdicts the checker could {e not} certify *)
  definitions : int;
      (** compound circuit nodes clausified in verdict contexts, live or
          retired ({!Specrepair_sat.Tseitin.definitions}) *)
  definitions_shared : int;
      (** of those, nodes served by a structurally equal definition the
          context already held *)
  keys_digested : int;
      (** declaration digests computed for cache keys: printed and hashed *)
  keys_reused : int;
      (** declaration digests served from the key memo, by physical
          identity *)
}

val create :
  ?certify:bool ->
  ?simplify:bool ->
  ?portfolio:int ->
  ?on_certify:(bool -> unit) ->
  Alloy.Typecheck.env ->
  t
(** A session keyed on the base spec's signature declarations.  Cheap: real
    work happens lazily, per scope, at the first query.

    With [~certify:true] every UNSAT verdict — the answer the repair study's
    "ok" and counterexample-free results rest on — is cross-checked by an
    independent DRUP proof checker ({!Specrepair_sat.Drat}): incremental
    contexts stream each learnt clause into a per-context checker as it is
    derived, and fresh fallback solves are checked from their recorded
    proofs.  Outcomes land in the [certified] / [certificate_failures]
    counters and, when given, [on_certify] is called with each result
    (the {!Specrepair_engine} session uses this to count certificates in
    its telemetry).  Certification roughly doubles solving cost; leave it
    off on hot paths and on for auditing runs.

    [~simplify:true] and [~portfolio:n] route {e verdict-only fresh
    solves} (the sig-incompatible fallback path) through the
    proof-preserving simplifier and the racing portfolio respectively.
    Instance-producing queries deliberately stay on the plain analyzer
    path, so the instances a session observes are bit-identical whatever
    the solving options — verdicts are solver-path-independent, first
    models are not. *)

val base : t -> Alloy.Typecheck.env

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

val stats : t -> stats
(** Snapshot of the session counters. *)

type sat_stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  reductions : int;
  subsumed : int;  (** clauses removed by subsumption *)
  strengthened : int;  (** self-subsuming resolutions *)
  vivified : int;  (** literals removed by vivification *)
  eliminated : int;  (** variables eliminated by BVE *)
}

val sat_stats : t -> sat_stats
(** Aggregate SAT-solver work under this oracle: the lifetime counters of
    every incremental context's solver, live or retired, plus the counters
    reported by simplified fresh solves; every field is monotone.  The simplification counters are nonzero only
    when the oracle was created with [~simplify:true]. *)

val pp_stats : Format.formatter -> t -> unit
