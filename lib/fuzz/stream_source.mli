(** The fuzz-generated corpus source for streaming studies.

    {!Specrepair_eval.Corpus_stream} maps global row indices to variants;
    its [Injected] source replays the paper's benchmark corpus, while
    this module plugs the fuzzer's spec generators ({!Gen}) in as a
    [Custom] source: every index yields a fresh well-typed specification
    with one seeded mutation applied — a corpus whose size is limited by
    nothing but the index space, at generator (not SAT-solver) cost.

    Fuzzed variants carry a synthetic one-variant domain and no
    observability guarantee (no command outcome is required to differ),
    so they feed corpus-level workloads — streaming-throughput benches,
    range-split determinism fuzzing, generation-rate measurements — not
    the paper's technique tables, which stay on the [Injected] source. *)

val fuzzed : Specrepair_eval.Corpus_stream.source
(** Deterministic in [(seed, index)]: generate a spec, pick the first
    applicable mutation from a seeded starting point that changes the
    spec and still type-checks, retrying with a fresh spec (bounded)
    when none qualifies. *)
