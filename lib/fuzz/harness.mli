(** The differential fuzzing campaigns: generate, cross-check, shrink,
    persist.

    Eight targets, each pitting a production component against an
    independent reference.  Every iteration derives its own {!Rng} stream
    from (seed, target, iteration index), so campaigns are
    bit-reproducible and every failure is replayable from the summary
    alone.  Discrepancies are shrunk ({!Shrink}) and persisted ({!Corpus})
    before being counted. *)

type target
(** One campaign: a generator, a check and a shrink-and-persist step,
    with the target's name and the counters its summary reports. *)

val sat : target
(** The CDCL solver vs. the DPLL reference ({!Ref_sat}), plain, under
    assumptions, under [max_conflicts] budgets, and incrementally across
    clause additions; models are checked against the clauses and
    unsat-cores against the assumption set. *)

val solver : target
(** [Translate] + CDCL bounded model finding vs. the exhaustive
    enumeration finder ({!Ref_models}); [Sat] instances are additionally
    re-checked by direct evaluation. *)

val oracle : target
(** The incremental, assumption-guarded [Solver.Oracle] vs. fresh
    [Analyzer] solves over mutation-derived candidate streams, including
    repeat queries (cache coherence).  One stream in four is long enough
    for the oracle to retire contexts mid-stream.  Its summary reports
    [contexts_retired] (solving contexts its oracles retired for
    outgrowing their queries) and [keys_reused] (declaration digests
    their key memos served without printing). *)

val eval : target
(** [Alloy.Eval] vs. the translation pinned to a concrete random
    instance, for both goal formulas and the facts/implicit conjunction;
    then memoized evaluation vs. direct: the spec and single-site mutants
    of it share one memo of the instance, and each must get the direct
    [facts_hold] answer. *)

val proof : target
(** The CDCL solver's DRUP proof log vs. the independent checker
    ({!Specrepair_sat.Drat}): every random CNF is solved with logging on,
    the steps must survive a round-trip through a randomly chosen on-disk
    format, and the checker must accept the certificate (a conflict
    derivation for Unsat, plain RUP-ness of every step otherwise).  Under
    [SPECREPAIR_FUZZ_CHAOS=drop-clause] the proof is tampered with before
    checking, so a correct checker {e rejects} and the hook trips as a
    discrepancy. *)

val parse : target
(** The frontend ({!Specrepair_alloy.Parser}) vs. the pretty printer
    ({!Specrepair_alloy.Pretty.source}): a generated spec's printed source
    must parse, parse ∘ print must be a fixpoint from the first parse on,
    and the result must still type-check.  Under
    [SPECREPAIR_FUZZ_CHAOS=corrupt-token] one token of the printed source
    is replaced with garbage and the frontend must reject it with a
    diagnostic positioned exactly at the corruption — the one chaos hook
    under which a correct implementation makes the campaign {e pass},
    because rejection is the desired behaviour. *)

val stream : target
(** The streaming corpus producer ({!Specrepair_eval.Corpus_stream}): a
    seed range cut at random interior points must yield, segment by
    segment, exactly the rows of the unsplit range (the invariant
    checkpoint/resume relies on, since a resumed run's chunk boundaries
    never match the crashed run's), and streaming the same range twice
    must be bit-identical.  Mostly the fuzz-generated source
    ({!Stream_source}); one case in eight hits the real injected benchmark
    corpus, including ranges that straddle the epoch boundary. *)

val panel : target
(** Fuzzed repair tasks pushed through {e every} profile of the
    simulated-LLM panel ({!Specrepair_llm.Model.panel}): each sampled
    proposal must be well-typed, must differ from the faulty spec, and
    must respect the guidance blocklist (grown with every accepted
    proposal, so the property is never vacuous).  The rounds are repeated
    through one mutation-space store shared by all profiles, about the
    spec and a re-parsed copy of it, and must propose the same specs and
    leave the generator in the same state as fresh stores.  Its summary
    reports [spaces_reused] (proposal builds its shared mutation-space
    stores answered without enumerating).  Under
    [SPECREPAIR_FUZZ_CHAOS=corrupt-stats] the target instead feeds the
    learned portfolio a tampered statistics file: a pristine save must
    round-trip, and an appended row, flipped digits, or truncation must
    all raise {!Specrepair_eval.Learned.Corrupt_stats} — like
    [corrupt-token], a correct implementation makes the chaos campaign
    {e pass}, because loud rejection is the desired behaviour. *)

val all_targets : target list
(** The eight targets, in the order a full campaign runs them. *)

val target_name : target -> string
(** The CLI spelling, e.g. ["sat"]. *)

type report = {
  target : string;
  seed : int;
  iters : int;
  checks : int;  (** iterations that ran a full differential comparison *)
  skipped : int;  (** instance space exceeded the enumeration cap *)
  discrepancies : int;
  corpus : string list;  (** paths of persisted shrunk failures *)
  counts : (string * int) list;
      (** the target's summary counters summed over the campaign, printed
          after [discrepancies] *)
}

val run :
  ?corpus_dir:string -> target -> seed:int -> iters:int -> unit -> report
(** Runs one campaign.  [corpus_dir] (default ["artifacts/fuzz"]) receives
    one shrunk [.cnf]/[.als] entry per discrepancy. *)

val report_json : report -> string
(** One-line JSON object; deterministic (no wall-clock fields), so two
    runs with the same seed are byte-identical. *)

val summary_json : corpus_dir:string -> seed:int -> report list -> string
(** The per-run JSON summary the CLI prints. *)

val replay_dir : string -> (string * (unit, string) result) list
(** Re-runs the differential checks on every corpus entry
    ({!Corpus.files}): [.cnf] files go through the SAT cross-check (with
    their recorded assumptions) and a proof-logged solve whose
    certificate must check; [.als] files through the frontend round-trip
    plus the model-finder and oracle cross-checks for every command.
    Each [Error] describes the entry's first disagreement. *)
