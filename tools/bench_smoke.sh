#!/bin/sh
# Smoke run of the benchmark harness at its smallest sizes: the study at
# one variant per domain and a 200 vs 2,000-row stream stage.  The bench
# evaluates every gate itself (bench/main.ml declares each one next to the
# artifact it judges), prints one pass/fail table and exits 1 if a gate
# failed; CI=1 skips the wall-clock gates.
#
# Set BENCH_ARTIFACTS_DIR to keep the BENCH_*.json artifacts (e.g. for a
# CI artifact upload); by default they live and die in a temp directory.
set -eu

cd "$(dirname "$0")/.."

if [ -n "${BENCH_ARTIFACTS_DIR:-}" ]; then
    mkdir -p "$BENCH_ARTIFACTS_DIR"
else
    BENCH_ARTIFACTS_DIR=$(mktemp -d)
    trap 'rm -rf "$BENCH_ARTIFACTS_DIR"' EXIT
fi

BENCH_SAMPLE="${BENCH_SAMPLE:-1}" BENCH_ARTIFACTS_DIR="$BENCH_ARTIFACTS_DIR" \
    BENCH_STREAM_SMALL="${BENCH_STREAM_SMALL:-200}" \
    BENCH_STREAM_LARGE="${BENCH_STREAM_LARGE:-2000}" dune exec bench/main.exe
