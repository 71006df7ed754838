#!/bin/sh
# Smoke test of the benchmark harness: run the whole bench at the smallest
# sample and check that the oracle, proof-certification and parallel stages
# produced well-formed artifacts.  Exits nonzero on any failure.
#
# Wall-clock thresholds (the oracle's >= 2x speedup, the daemon's >= 2x
# warm-request speedup, the learned portfolio's >= 1.2x time-to-first-
# repair) are only enforced on quiet local machines; under CI=1 the script
# gates on the stages' cache and scheduler counters instead, which are
# deterministic, because shared CI runners make wall-clock ratios flaky.
#
# Set BENCH_ARTIFACTS_DIR to keep the BENCH_*.json artifacts (e.g. for a
# CI artifact upload); by default they live and die in a temp directory.
set -eu

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

out="$workdir/BENCH_oracle.json"
proof="$workdir/BENCH_proof.json"
par="$workdir/BENCH_parallel.json"
sat="$workdir/BENCH_sat.json"
serve="$workdir/BENCH_serve.json"
stream="$workdir/BENCH_stream.json"
hybrid="$workdir/BENCH_hybrid.json"
ci_mode="${CI:-0}"

# The stream stage's full-size corpus (1k vs 100k rows) is for committed
# artifacts from quiet machines; the smoke run scales it down and gates
# only on the deterministic facts (row counts, manifest completeness).
BENCH_SAMPLE="${BENCH_SAMPLE:-1}" BENCH_ORACLE_OUT="$out" \
    BENCH_PROOF_OUT="$proof" BENCH_PARALLEL_OUT="$par" \
    BENCH_SAT_OUT="$sat" BENCH_SERVE_OUT="$serve" \
    BENCH_STREAM_OUT="$stream" BENCH_HYBRID_OUT="$hybrid" \
    BENCH_STREAM_SMALL="${BENCH_STREAM_SMALL:-200}" \
    BENCH_STREAM_LARGE="${BENCH_STREAM_LARGE:-2000}" dune exec bench/main.exe

for f in "$out" "$proof" "$par" "$sat" "$serve" "$stream" "$hybrid"; do
    if [ ! -s "$f" ]; then
        echo "bench_smoke: $f missing or empty" >&2
        exit 1
    fi
done

if [ -n "${BENCH_ARTIFACTS_DIR:-}" ]; then
    mkdir -p "$BENCH_ARTIFACTS_DIR"
    cp "$out" "$proof" "$par" "$sat" "$serve" "$stream" "$hybrid" \
        "$BENCH_ARTIFACTS_DIR/"
fi

if command -v python3 >/dev/null 2>&1; then
    CI_MODE="$ci_mode" python3 - "$out" "$proof" "$par" "$sat" "$serve" \
        "$stream" "$hybrid" <<'EOF'
import json, os, sys

ci = os.environ.get("CI_MODE", "0") == "1"

# every artifact is stamped with the revision, core count and compiler
for path in sys.argv[1:]:
    with open(path) as f:
        stamped = json.load(f)
    missing = [k for k in ("git_rev", "nproc", "ocaml") if k not in stamped]
    if missing:
        sys.exit(f"bench_smoke: {os.path.basename(path)} lacks stamp keys: {missing}")

with open(sys.argv[1]) as f:
    data = json.load(f)

required = [
    "sample", "domains", "candidates", "fresh_ms", "incremental_ms",
    "speedup", "verdict_hits", "verdict_misses", "instance_hits",
    "instance_misses", "fallback_queries", "formulas_translated",
    "formulas_reused", "contexts",
]
missing = [k for k in required if k not in data]
if missing:
    sys.exit(f"bench_smoke: BENCH_oracle.json lacks keys: {missing}")
if data["candidates"] <= 0:
    sys.exit("bench_smoke: no candidates were checked")
if ci:
    # deterministic cache-effectiveness gates for noisy shared runners
    if data["verdict_hits"] <= 0:
        sys.exit("bench_smoke: incremental oracle reports no verdict-cache hits")
    if data["formulas_reused"] <= 0:
        sys.exit("bench_smoke: incremental oracle reports no formula reuse")
    print(f"bench_smoke: oracle ok under CI ({data['verdict_hits']} verdict "
          f"hits, {data['formulas_reused']} formulas reused; wall-clock "
          f"speedup {data['speedup']}x unchecked)")
else:
    if data["speedup"] < 2.0:
        sys.exit(f"bench_smoke: oracle speedup {data['speedup']} below 2x")
    print(f"bench_smoke: oracle ok (speedup {data['speedup']}x on "
          f"{data['candidates']} candidates)")

with open(sys.argv[2]) as f:
    cdata = json.load(f)

crequired = [
    "sample", "domains", "candidates", "plain_ms", "certified_ms",
    "overhead", "verdicts_match", "certified", "certificate_failures",
    "sat_plain_ms", "sat_logged_ms", "sat_checked_ms", "proof_steps",
]
missing = [k for k in crequired if k not in cdata]
if missing:
    sys.exit(f"bench_smoke: BENCH_proof.json lacks keys: {missing}")
if not cdata["verdicts_match"]:
    sys.exit("bench_smoke: certified verdicts diverged from plain verdicts")
if cdata["certified"] <= 0:
    sys.exit("bench_smoke: proof stage certified no UNSAT verdict")
if cdata["certificate_failures"] != 0:
    sys.exit("bench_smoke: the checker rejected "
             f"{cdata['certificate_failures']} certificate(s)")
if cdata["proof_steps"] <= 0:
    sys.exit("bench_smoke: pigeonhole run logged no proof steps")
print(f"bench_smoke: proof ok ({cdata['certified']} certificates accepted, "
      f"overhead {cdata['overhead']}x, {cdata['proof_steps']} pigeonhole "
      "steps)")

with open(sys.argv[3]) as f:
    pdata = json.load(f)

prequired = [
    "sample", "jobs", "rows", "dynamic_ms", "rows_match_sequential",
    "chunks_dispatched",
    "chunks_completed", "rows_completed", "retries", "workers_spawned",
    "workers_lost", "heartbeat_kills",
]
missing = [k for k in prequired if k not in pdata]
if missing:
    sys.exit(f"bench_smoke: BENCH_parallel.json lacks keys: {missing}")
if pdata["rows"] <= 0:
    sys.exit("bench_smoke: parallel stage ran no rows")
if not pdata["rows_match_sequential"]:
    sys.exit("bench_smoke: parallel rows diverged from the sequential run")
if pdata["rows_completed"] != pdata["rows"]:
    sys.exit("bench_smoke: scheduler merged "
             f"{pdata['rows_completed']} of {pdata['rows']} rows")
if pdata["chunks_completed"] < 1 or \
        pdata["chunks_completed"] > pdata["chunks_dispatched"]:
    sys.exit("bench_smoke: implausible chunk counters "
             f"({pdata['chunks_completed']}/{pdata['chunks_dispatched']})")
if pdata["workers_spawned"] < 1:
    sys.exit("bench_smoke: scheduler spawned no workers")
if pdata["retries"] != 0 or pdata["workers_lost"] != 0:
    sys.exit("bench_smoke: undisturbed run reports retries="
             f"{pdata['retries']} workers_lost={pdata['workers_lost']}")
print(f"bench_smoke: parallel ok ({pdata['rows']} rows, "
      f"{pdata['chunks_completed']} chunks over {pdata['jobs']} workers, "
      f"{pdata['dynamic_ms']} ms)")

with open(sys.argv[4]) as f:
    sdata = json.load(f)

srequired = [
    "families", "best_simplify_speedup", "best_portfolio_speedup",
    "verdicts_agree", "certified_unsat", "certificate_failures",
]
missing = [k for k in srequired if k not in sdata]
if missing:
    sys.exit(f"bench_smoke: BENCH_sat.json lacks keys: {missing}")
if not sdata["families"]:
    sys.exit("bench_smoke: SAT stage measured no instance families")
for fam in sdata["families"]:
    for k in ["name", "instances", "verdicts", "plain_ms", "simplify_ms",
              "portfolio_ms", "simplify_speedup", "portfolio_speedup",
              "certified_unsat"]:
        if k not in fam:
            sys.exit(f"bench_smoke: SAT family lacks key {k}")
if not sdata["verdicts_agree"]:
    sys.exit("bench_smoke: SAT stage verdicts diverged across solving modes")
if sdata["certified_unsat"] <= 0:
    sys.exit("bench_smoke: SAT stage certified no UNSAT instance")
if sdata["certificate_failures"] != 0:
    sys.exit("bench_smoke: the checker rejected "
             f"{sdata['certificate_failures']} SAT-stage certificate(s)")
if ci:
    # wall-clock ratios are flaky on shared runners; the deterministic
    # gates above (verdict agreement, accepted certificates) still ran
    print(f"bench_smoke: sat ok under CI ({len(sdata['families'])} families, "
          f"{sdata['certified_unsat']} certified; speedups unchecked)")
else:
    if sdata["best_simplify_speedup"] < 1.2:
        sys.exit("bench_smoke: best simplification speedup "
                 f"{sdata['best_simplify_speedup']} below 1.2x")
    if sdata["best_portfolio_speedup"] < 1.5:
        sys.exit("bench_smoke: best portfolio speedup "
                 f"{sdata['best_portfolio_speedup']} below 1.5x")
    print(f"bench_smoke: sat ok (simplify {sdata['best_simplify_speedup']}x, "
          f"portfolio {sdata['best_portfolio_speedup']}x, "
          f"{sdata['certified_unsat']} certified)")

with open(sys.argv[5]) as f:
    vdata = json.load(f)

vrequired = [
    "specs", "repeats", "requests_cold", "requests_warm", "cold_ms",
    "warm_ms", "cold_rps", "warm_rps", "warm_speedup", "replies_match",
    "cache_hits", "cache_misses", "worker_respawns", "queue_high_water",
    "clean_shutdown",
]
missing = [k for k in vrequired if k not in vdata]
if missing:
    sys.exit(f"bench_smoke: BENCH_serve.json lacks keys: {missing}")
if vdata["requests_cold"] <= 0 or vdata["requests_warm"] <= 0:
    sys.exit("bench_smoke: serve stage sent no requests")
if not vdata["replies_match"]:
    sys.exit("bench_smoke: warm serve replies diverged from cold replies")
if not vdata["clean_shutdown"]:
    sys.exit("bench_smoke: the daemon did not shut down cleanly on SIGTERM")
# the cache identities are exact regardless of runner noise: every warm
# repeat must hit, every cold request must miss, and nothing may crash
if vdata["cache_hits"] != vdata["requests_warm"]:
    sys.exit("bench_smoke: serve cache hits "
             f"{vdata['cache_hits']} != warm requests {vdata['requests_warm']}")
if vdata["cache_misses"] != vdata["requests_cold"]:
    sys.exit("bench_smoke: serve cache misses "
             f"{vdata['cache_misses']} != cold requests {vdata['requests_cold']}")
if vdata["worker_respawns"] != 0:
    sys.exit("bench_smoke: undisturbed serve run reports "
             f"{vdata['worker_respawns']} worker respawn(s)")
if ci:
    print(f"bench_smoke: serve ok under CI ({vdata['cache_hits']} warm hits "
          f"over {vdata['requests_warm']} repeats; wall-clock speedup "
          f"{vdata['warm_speedup']}x unchecked)")
else:
    if vdata["warm_speedup"] < 2.0:
        sys.exit(f"bench_smoke: warm serve speedup {vdata['warm_speedup']} "
                 "below 2x")
    print(f"bench_smoke: serve ok (warm {vdata['warm_rps']} req/s vs cold "
          f"{vdata['cold_rps']} req/s, {vdata['warm_speedup']}x)")

with open(sys.argv[6]) as f:
    wdata = json.load(f)

wrequired = [
    "jobs", "small_rows", "large_rows", "small_ms", "large_ms",
    "small_rows_per_s", "large_rows_per_s", "large_over_small",
    "rows_match", "manifest_complete", "parent_peak_heap_mb",
]
missing = [k for k in wrequired if k not in wdata]
if missing:
    sys.exit(f"bench_smoke: BENCH_stream.json lacks keys: {missing}")
if wdata["small_rows"] <= 0 or wdata["large_rows"] <= wdata["small_rows"]:
    sys.exit("bench_smoke: stream stage corpus sizes are implausible "
             f"({wdata['small_rows']} vs {wdata['large_rows']})")
if not wdata["rows_match"]:
    sys.exit("bench_smoke: stream stage merged row counts diverged")
if not wdata["manifest_complete"]:
    sys.exit("bench_smoke: stream stage finished with an incomplete manifest")
if ci:
    # throughput ratios are flaky on shared runners; the deterministic
    # gates (every row derived, checkpointed, merged) still ran
    print(f"bench_smoke: stream ok under CI ({wdata['large_rows']} rows "
          f"streamed and merged; throughput ratio "
          f"{wdata['large_over_small']}x unchecked)")
else:
    if wdata["large_over_small"] < 0.9:
        sys.exit("bench_smoke: streaming throughput degraded with corpus "
                 f"size ({wdata['large_over_small']}x large/small, need "
                 ">= 0.9)")
    print(f"bench_smoke: stream ok ({wdata['large_rows_per_s']} rows/s at "
          f"{wdata['large_rows']} rows, {wdata['large_over_small']}x of the "
          f"small run, parent peak heap {wdata['parent_peak_heap_mb']} MB)")

with open(sys.argv[7]) as f:
    hdata = json.load(f)

hrequired = [
    "sample", "tasks", "defect_classes", "mined_cells", "profiles",
    "union_repairs", "union_strictly_exceeds", "planned_tasks",
    "coldstart_identical", "static_ms", "learned_ms", "static_repairs",
    "learned_repairs", "speedup",
]
missing = [k for k in hrequired if k not in hdata]
if missing:
    sys.exit(f"bench_smoke: BENCH_hybrid.json lacks keys: {missing}")
for prof in hdata["profiles"]:
    for k in ["name", "techniques", "repairs", "rate"]:
        if k not in prof:
            sys.exit(f"bench_smoke: hybrid profile entry lacks key {k}")
if len(hdata["profiles"]) < 4:
    sys.exit("bench_smoke: hybrid stage covered fewer than 4 panel profiles")
if not hdata["union_strictly_exceeds"]:
    sys.exit("bench_smoke: panel union does not strictly exceed every "
             "single profile's coverage")
if not hdata["coldstart_identical"]:
    sys.exit("bench_smoke: cold-start repair_learned diverged from the "
             "static pipeline")
if hdata["planned_tasks"] <= 0:
    sys.exit("bench_smoke: mined statistics produced no learned plan")
if hdata["learned_repairs"] <= 0:
    sys.exit("bench_smoke: learned ordering repaired nothing")
if ci:
    # wall-clock time-to-first-repair is flaky on shared runners; the
    # deterministic gates (union coverage, cold-start identity, learned
    # plans, repair counts) still ran
    print(f"bench_smoke: hybrid ok under CI ({hdata['planned_tasks']} learned "
          f"plans over {hdata['defect_classes']} classes, union "
          f"{hdata['union_repairs']} repairs; speedup {hdata['speedup']}x "
          "unchecked)")
else:
    if hdata["speedup"] < 1.2:
        sys.exit(f"bench_smoke: learned portfolio speedup {hdata['speedup']} "
                 "below 1.2x time-to-first-repair")
    print(f"bench_smoke: hybrid ok (learned {hdata['speedup']}x faster, "
          f"{hdata['learned_repairs']}/{hdata['tasks']} repaired vs "
          f"{hdata['static_repairs']} static)")
EOF
else
    # no python3: settle for structural sanity checks
    for f in "$out" "$proof" "$par" "$sat" "$serve" "$stream" "$hybrid"; do
        for key in git_rev nproc ocaml; do
            if ! grep -q "\"$key\"" "$f"; then
                echo "bench_smoke: $(basename "$f") lacks stamp key $key" >&2
                exit 1
            fi
        done
    done
    for key in speedup fresh_ms incremental_ms verdict_hits; do
        if ! grep -q "\"$key\"" "$out"; then
            echo "bench_smoke: BENCH_oracle.json lacks key $key" >&2
            exit 1
        fi
    done
    for key in certified certificate_failures overhead proof_steps; do
        if ! grep -q "\"$key\"" "$proof"; then
            echo "bench_smoke: BENCH_proof.json lacks key $key" >&2
            exit 1
        fi
    done
    for key in dynamic_ms chunks_completed retries workers_lost; do
        if ! grep -q "\"$key\"" "$par"; then
            echo "bench_smoke: BENCH_parallel.json lacks key $key" >&2
            exit 1
        fi
    done
    for key in best_simplify_speedup best_portfolio_speedup verdicts_agree \
            certified_unsat certificate_failures; do
        if ! grep -q "\"$key\"" "$sat"; then
            echo "bench_smoke: BENCH_sat.json lacks key $key" >&2
            exit 1
        fi
    done
    for key in warm_speedup replies_match cache_hits worker_respawns \
            clean_shutdown; do
        if ! grep -q "\"$key\"" "$serve"; then
            echo "bench_smoke: BENCH_serve.json lacks key $key" >&2
            exit 1
        fi
    done
    for key in large_over_small rows_match manifest_complete \
            parent_peak_heap_mb; do
        if ! grep -q "\"$key\"" "$stream"; then
            echo "bench_smoke: BENCH_stream.json lacks key $key" >&2
            exit 1
        fi
    done
    for key in union_strictly_exceeds coldstart_identical planned_tasks \
            learned_repairs speedup; do
        if ! grep -q "\"$key\"" "$hybrid"; then
            echo "bench_smoke: BENCH_hybrid.json lacks key $key" >&2
            exit 1
        fi
    done
    echo "bench_smoke: ok (grep-level check; python3 unavailable)"
fi

# The repair CLI's --telemetry dump (one JSON object on stderr) must parse
# and report genuine work: solver queries and candidate evaluations.
telem="$workdir/telemetry.json"
dune exec bin/specrepair.exe -- repair specs/graph_faulty.als \
    --tool beafix --telemetry >/dev/null 2>"$telem"

if [ ! -s "$telem" ]; then
    echo "bench_smoke: --telemetry produced no output" >&2
    exit 1
fi

if [ -n "${BENCH_ARTIFACTS_DIR:-}" ]; then
    cp "$telem" "$BENCH_ARTIFACTS_DIR/repair_telemetry.json"
fi

if command -v python3 >/dev/null 2>&1; then
    python3 - "$telem" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    data = json.load(f)

required = [
    "tool", "elapsed_ms", "timed_out", "solver_queries",
    "candidates_generated", "candidates_evaluated", "oracle", "sat",
    "phases",
]
missing = [k for k in required if k not in data]
if missing:
    sys.exit(f"bench_smoke: telemetry lacks keys: {missing}")
if data["sat"]["conflicts"] < 0:
    sys.exit("bench_smoke: telemetry sat counters are negative")
if data["solver_queries"] <= 0:
    sys.exit("bench_smoke: telemetry reports no solver queries")
if data["candidates_evaluated"] <= 0:
    sys.exit("bench_smoke: telemetry reports no candidates evaluated")
print(f"bench_smoke: telemetry ok ({data['solver_queries']} solver queries, "
      f"{data['candidates_evaluated']} candidates evaluated)")
EOF
else
    for key in solver_queries candidates_evaluated oracle phases; do
        if ! grep -q "\"$key\"" "$telem"; then
            echo "bench_smoke: telemetry lacks key $key" >&2
            exit 1
        fi
    done
    echo "bench_smoke: telemetry ok (grep-level check; python3 unavailable)"
fi
