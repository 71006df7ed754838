#!/bin/sh
# Differential-fuzzing smoke gate: run every target of `specrepair fuzz`
# at a pinned seed and a bounded iteration count, and require zero
# cross-oracle discrepancies plus byte-identical summaries across two
# runs (the reproducibility contract the regression corpus depends on).
#
# Iteration counts are deliberately modest — the full campaigns run
# locally via `specrepair fuzz --iters 500` — but every discrepancy
# class the harness knows (SAT verdicts, models, unsat cores, budget
# behaviour, model-finder vs enumeration, oracle coherence (stored
# witness and core answers included), pinned
# translation vs evaluation, DRUP certificate checking, frontend
# print/parse round-trips, streaming-corpus split invariance,
# model-panel proposal contracts, serve reply memo vs recomputation) is
# exercised on every run.
set -eu

cd "$(dirname "$0")/.."

seed="${FUZZ_SEED:-42}"
sat_iters="${FUZZ_SAT_ITERS:-500}"
iters="${FUZZ_ITERS:-100}"

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

run() {
    dune exec bin/specrepair.exe -- fuzz \
        --target "$1" --iters "$2" --seed "$seed" \
        --corpus-dir "$workdir/corpus-$1"
}

for pass in 1 2; do
    {
        run sat "$sat_iters"
        run solver "$iters"
        run oracle "$iters"
        run eval "$iters"
        run proof "$iters"
        run parse "$iters"
        run stream "$iters"
        run panel "$iters"
        run replies "$iters"
    } > "$workdir/summary-$pass.json" || {
        echo "fuzz_smoke: discrepancies found (pass $pass):" >&2
        cat "$workdir/summary-$pass.json" >&2
        ls "$workdir"/corpus-* >&2 || true
        exit 1
    }
done

if ! cmp -s "$workdir/summary-1.json" "$workdir/summary-2.json"; then
    echo "fuzz_smoke: summaries differ between identically-seeded runs" >&2
    diff "$workdir/summary-1.json" "$workdir/summary-2.json" >&2 || true
    exit 1
fi

# Each summary line must be JSON a standard parser accepts (whatever the
# corpus directory is called), not just byte-identical across runs.
if command -v python3 >/dev/null 2>&1; then
    python3 - "$workdir/summary-1.json" <<'EOF_PY' || exit 1
import json, sys
with open(sys.argv[1]) as f:
    for n, line in enumerate(f, 1):
        try:
            json.loads(line)
        except ValueError as e:
            sys.exit(f"fuzz_smoke: summary line {n} is not JSON: {e}")
EOF_PY
fi

# The oracle campaign must have driven its oracles past the context bound:
# a smoke in which no context was ever retired leaves retirement unchecked.
retired=$(grep -o '"target":"oracle"[^}]*"contexts_retired":[0-9]*' \
    "$workdir/summary-1.json" | sed 's/.*://')
if [ -z "$retired" ] || [ "$retired" -eq 0 ]; then
    echo "fuzz_smoke: the oracle campaign retired no solving context" >&2
    exit 1
fi

# The oracle campaign must also have served declaration digests from its
# oracles' key memos, or its streams never checked a memoized key.
keys=$(grep -o '"target":"oracle"[^}]*"keys_reused":[0-9]*' \
    "$workdir/summary-1.json" | sed 's/.*://')
if [ -z "$keys" ] || [ "$keys" -eq 0 ]; then
    echo "fuzz_smoke: the oracle campaign reused no key digest" >&2
    exit 1
fi

# And its oracles must have answered queries from stored witnesses and
# stored cores, or the comparison never checked a stored answer.
oracle_count() {
    grep -o '"target":"oracle"[^}]*"'"$1"'":[0-9]*' \
        "$workdir/summary-1.json" | sed 's/.*://'
}
witnesses=$(oracle_count witness_hits)
cores=$(oracle_count core_hits)
if [ -z "$witnesses" ] || [ "$witnesses" -eq 0 ] ||
    [ -z "$cores" ] || [ "$cores" -eq 0 ]; then
    echo "fuzz_smoke: the oracle campaign answered no query from a stored witness or core" >&2
    exit 1
fi

# Likewise the panel campaign must have answered proposal builds from its
# shared mutation-space stores, or the store comparison checked nothing.
reused=$(grep -o '"target":"panel"[^}]*"spaces_reused":[0-9]*' \
    "$workdir/summary-1.json" | sed 's/.*://')
if [ -z "$reused" ] || [ "$reused" -eq 0 ]; then
    echo "fuzz_smoke: the panel campaign reused no mutation space" >&2
    exit 1
fi

# The chaos hook corrupts the DPLL reference on purpose; the harness must
# notice, shrink, persist a corpus entry, and exit nonzero.
if SPECREPAIR_FUZZ_CHAOS=drop-clause dune exec bin/specrepair.exe -- fuzz \
    --target sat --iters 50 --seed "$seed" \
    --corpus-dir "$workdir/chaos" > "$workdir/chaos.json" 2>&1; then
    echo "fuzz_smoke: injected reference fault was not detected" >&2
    exit 1
fi
if ! ls "$workdir/chaos"/*.cnf >/dev/null 2>&1; then
    echo "fuzz_smoke: chaos run persisted no corpus entry" >&2
    exit 1
fi

# The same hook feeds the proof checker every premise but the last, so
# DRUP certificates stop checking: the rejections (never crashes) must be
# counted as discrepancies and fail the run.
if SPECREPAIR_FUZZ_CHAOS=drop-clause dune exec bin/specrepair.exe -- fuzz \
    --target proof --iters 50 --seed "$seed" \
    --corpus-dir "$workdir/chaos-proof" > "$workdir/chaos-proof.json" 2>&1; then
    echo "fuzz_smoke: tampered proof premises were not rejected" >&2
    exit 1
fi
if ! ls "$workdir/chaos-proof"/*.cnf >/dev/null 2>&1; then
    echo "fuzz_smoke: proof chaos run persisted no corpus entry" >&2
    exit 1
fi

# Two oracle chaos hooks make stored answers wrong: corrupt-witness
# answers from a witness without checking the goal (wrong sat verdicts),
# drop-core-key stores each core less one key (wrong unsat verdicts).
# The comparison with fresh solves must catch each and fail the run.
for hook in corrupt-witness drop-core-key; do
    if SPECREPAIR_FUZZ_CHAOS=$hook dune exec bin/specrepair.exe -- fuzz \
        --target oracle --iters 20 --seed "$seed" \
        --corpus-dir "$workdir/chaos-$hook" > "$workdir/chaos-$hook.json" 2>&1; then
        echo "fuzz_smoke: the $hook chaos hook was not detected" >&2
        exit 1
    fi
    if ! grep -q '"discrepancies":[1-9]' "$workdir/chaos-$hook.json"; then
        echo "fuzz_smoke: the $hook chaos run failed without a discrepancy" >&2
        cat "$workdir/chaos-$hook.json" >&2
        exit 1
    fi
done

# The parse chaos hook corrupts one token of each printed spec; the
# frontend must reject every corrupted source with a diagnostic placed
# exactly at the corruption.  Unlike the hooks above, correct behaviour
# here is rejection, so the campaign must report zero discrepancies and
# exit 0.
if ! SPECREPAIR_FUZZ_CHAOS=corrupt-token dune exec bin/specrepair.exe -- fuzz \
    --target parse --iters 50 --seed "$seed" \
    --corpus-dir "$workdir/chaos-parse" > "$workdir/chaos-parse.json" 2>&1; then
    echo "fuzz_smoke: a corrupted token was not rejected with a positioned diagnostic" >&2
    cat "$workdir/chaos-parse.json" >&2
    exit 1
fi

# The panel chaos hook tampers a learned-portfolio statistics file three
# ways (appended row, flipped digits, truncation); Learned.load must
# reject every corruption with Corrupt_stats.  As with corrupt-token,
# rejection is correct behaviour: the campaign must report zero
# discrepancies and exit 0.
if ! SPECREPAIR_FUZZ_CHAOS=corrupt-stats dune exec bin/specrepair.exe -- fuzz \
    --target panel --iters 50 --seed "$seed" \
    --corpus-dir "$workdir/chaos-panel" > "$workdir/chaos-panel.json" 2>&1; then
    echo "fuzz_smoke: a tampered statistics file was not rejected loudly" >&2
    cat "$workdir/chaos-panel.json" >&2
    exit 1
fi

# The replies campaign must have answered requests from its handlers'
# reply memos, or it compared recomputations with themselves.
replies=$(grep -o '"target":"replies"[^}]*"replies_reused":[0-9]*' \
    "$workdir/summary-1.json" | sed 's/.*://')
if [ -z "$replies" ] || [ "$replies" -eq 0 ]; then
    echo "fuzz_smoke: the replies campaign reused no reply" >&2
    exit 1
fi

# Keep the campaign summaries (e.g. for a CI artifact upload) if asked.
if [ -n "${FUZZ_ARTIFACTS_DIR:-}" ]; then
    mkdir -p "$FUZZ_ARTIFACTS_DIR"
    cp "$workdir/summary-1.json" "$FUZZ_ARTIFACTS_DIR/fuzz_summary.json"
    for c in chaos chaos-proof chaos-parse chaos-panel \
        chaos-corrupt-witness chaos-drop-core-key; do
        if [ -s "$workdir/$c.json" ]; then
            cp "$workdir/$c.json" "$FUZZ_ARTIFACTS_DIR/fuzz_$c.json"
        fi
    done
fi

echo "fuzz_smoke: ok (seed $seed; sat x$sat_iters, solver/oracle/eval/proof/parse/stream/panel/replies x$iters, twice, byte-identical; $retired oracle contexts retired; $keys key digests reused; $witnesses witness and $cores core answers; $reused mutation spaces reused; $replies replies reused; chaos hooks caught)"
