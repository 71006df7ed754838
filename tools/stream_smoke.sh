#!/bin/sh
# Crash-recovery smoke gate for streaming studies: run a small
# checkpointed study, kill it (SIGKILL, via the scheduler's chaos hook)
# after its first checkpointed chunk, resume it with --resume, and
# require the merged CSV to be identical — modulo the wall-clock time_ms
# column — to an uninterrupted run.  Also checks that resuming a
# directory with no checkpoint fails loudly instead of silently starting
# fresh, and that resuming over a tampered shard is rejected without
# writing a CSV.
#
# Everything gated here is deterministic (row identity, manifest shape,
# exit codes), so the script behaves the same under CI=1 and locally.
# Set STREAM_ARTIFACTS_DIR to keep the manifest, shards and merged CSVs
# (e.g. for a CI artifact upload).
set -eu

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

total="${STREAM_TOTAL:-4}"
jobs="${STREAM_JOBS:-2}"
seed="${STREAM_SEED:-7}"

dune build bin/specrepair.exe
exe=_build/default/bin/specrepair.exe

# 1. Arm the crash hook: the scheduler parent SIGKILLs its own process
#    right after the first chunk is checkpointed — the overnight study
#    dying mid-run.  The command must die abnormally, leaving a manifest
#    and at least one shard but no merged CSV.
if SPECREPAIR_SCHED_CRASH_AFTER_CHUNKS=1 "$exe" study \
    --dir "$workdir/crashed" --total "$total" --jobs "$jobs" \
    --technique ATR --seed "$seed" --quiet >/dev/null 2>&1; then
    echo "stream_smoke: the crash hook never fired (run completed)" >&2
    exit 1
fi
if [ ! -f "$workdir/crashed/manifest.json" ]; then
    echo "stream_smoke: crashed run left no manifest" >&2
    exit 1
fi
if ! ls "$workdir/crashed"/shard_*.res >/dev/null 2>&1; then
    echo "stream_smoke: crashed run checkpointed no shard" >&2
    exit 1
fi
if [ -f "$workdir/crashed/results.csv" ]; then
    echo "stream_smoke: crashed run merged a CSV it must not have" >&2
    exit 1
fi

# 2. Resume: only the pending rows are computed, the run completes, and
#    the shards merge into a CSV.
"$exe" study --dir "$workdir/crashed" --total "$total" --jobs "$jobs" \
    --technique ATR --seed "$seed" --quiet --resume >/dev/null

# 3. The uninterrupted reference run.
"$exe" study --dir "$workdir/clean" --total "$total" --jobs "$jobs" \
    --technique ATR --seed "$seed" --quiet >/dev/null

# 4. Byte-identical modulo the wall-clock column.
cut -d, -f1-8 "$workdir/crashed/results.csv" > "$workdir/crashed.cols"
cut -d, -f1-8 "$workdir/clean/results.csv" > "$workdir/clean.cols"
if ! cmp -s "$workdir/crashed.cols" "$workdir/clean.cols"; then
    echo "stream_smoke: crash+resume CSV diverged from the clean run:" >&2
    diff "$workdir/crashed.cols" "$workdir/clean.cols" >&2 || true
    exit 1
fi

# 5. Resuming a checkpoint that does not exist is an error, never a
#    silent fresh start.
if "$exe" study --dir "$workdir/nothing" --total "$total" \
    --technique ATR --seed "$seed" --quiet --resume >/dev/null 2>&1; then
    echo "stream_smoke: --resume without a manifest did not fail" >&2
    exit 1
fi

# 6. A shard whose row payload was altered after checkpointing keeps its
#    framing, so only the merge can catch it: the resume must exit 1 with
#    "checkpoint rejected" and write no results.csv.
mkdir "$workdir/tampered"
cp "$workdir/clean/manifest.json" "$workdir/clean"/shard_*.res "$workdir/tampered/"
shard=$(ls "$workdir/tampered"/shard_*.res | head -1)
sed '1s/,[^,]*,[^,]*$//' "$shard" > "$workdir/tampered.res"
mv "$workdir/tampered.res" "$shard"
status=0
"$exe" study --dir "$workdir/tampered" --total "$total" --jobs "$jobs" \
    --technique ATR --seed "$seed" --quiet --resume \
    >/dev/null 2>"$workdir/tampered.err" || status=$?
if [ "$status" -ne 1 ] || ! grep -q 'checkpoint rejected' "$workdir/tampered.err"; then
    echo "stream_smoke: a tampered shard was not rejected (exit $status):" >&2
    cat "$workdir/tampered.err" >&2
    exit 1
fi
if [ -f "$workdir/tampered/results.csv" ]; then
    echo "stream_smoke: a rejected resume wrote results.csv" >&2
    exit 1
fi

if [ -n "${STREAM_ARTIFACTS_DIR:-}" ]; then
    mkdir -p "$STREAM_ARTIFACTS_DIR"
    cp "$workdir/crashed/manifest.json" "$STREAM_ARTIFACTS_DIR/"
    cp "$workdir/crashed"/shard_*.res "$STREAM_ARTIFACTS_DIR/" 2>/dev/null || true
    cp "$workdir/crashed/results.csv" "$STREAM_ARTIFACTS_DIR/results_resumed.csv"
    cp "$workdir/clean/results.csv" "$STREAM_ARTIFACTS_DIR/results_clean.csv"
fi

echo "stream_smoke: ok ($total rows x $jobs jobs; killed after first chunk, resumed, merged CSV identical modulo time_ms; tampered shard rejected)"
