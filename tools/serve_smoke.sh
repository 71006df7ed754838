#!/bin/sh
# Serve smoke gate: start the repair daemon, hit it with a concurrent
# client burst, and check the behaviours CI can assert deterministically:
#
#   - warm-cache counters: a burst of identical requests routes to one
#     sticky worker, so exactly one request misses and every other hits;
#   - the reply memo: two repeats of a repair request are answered by the
#     daemon with the first reply, flagged warm, and counted as reused;
#   - crash containment: a chaos-SIGKILLed worker costs exactly the one
#     request it was serving (an error reply, a respawn counter tick) and
#     the daemon keeps answering;
#   - clean shutdown: SIGTERM ends the daemon with exit 0, the socket
#     file is unlinked, and the telemetry sink records the shutdown;
#   - admission: with one worker and --max-inflight 3, a burst of four
#     slow requests has one dispatched and two queued, and exactly one
#     is refused overloaded.
#
# Set SERVE_ARTIFACTS_DIR to keep the telemetry JSONL for upload.
set -eu

cd "$(dirname "$0")/.."

# Unix sockets cap path length around 104 bytes: stay under /tmp
# regardless of how deep the checkout lives.
workdir=$(mktemp -d /tmp/serve_smoke.XXXXXX)
sock="$workdir/d.sock"
telem="$workdir/serve_telemetry.jsonl"
daemon_log="$workdir/daemon.log"

cleanup() {
    if [ -n "${daemon_pid:-}" ] && kill -0 "$daemon_pid" 2>/dev/null; then
        kill -KILL "$daemon_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

dune build bin/specrepair.exe
exe=_build/default/bin/specrepair.exe

# start_daemon ARGS...: a chaos-enabled daemon on $sock, once it listens
start_daemon() {
    SPECREPAIR_SERVE_CHAOS=1 "$exe" serve --socket "$sock" "$@" \
        > "$daemon_log" 2>&1 &
    daemon_pid=$!
    i=0
    while [ ! -S "$sock" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "serve_smoke: daemon socket never appeared" >&2
            cat "$daemon_log" >&2
            exit 1
        fi
        sleep 0.1
    done
}

# stop_daemon: SIGTERM must end it with exit 0 and unlink the socket
stop_daemon() {
    kill -TERM "$daemon_pid"
    if wait "$daemon_pid"; then :; else
        echo "serve_smoke: daemon exited nonzero on SIGTERM" >&2
        cat "$daemon_log" >&2
        exit 1
    fi
    daemon_pid=
    if [ -S "$sock" ]; then
        echo "serve_smoke: socket file survived shutdown" >&2
        exit 1
    fi
}

start_daemon --workers 2 --telemetry "$telem"

client() {
    "$exe" client "$@" --socket "$sock"
}

spec=specs/graph.als

# One warm-up miss, then a concurrent burst of eight identical requests:
# sticky routing makes the hit pattern exact (8 hits on the warmed key).
client evaluate --file "$spec" > "$workdir/warmup.json"
grep -q '"warm":false' "$workdir/warmup.json" || {
    echo "serve_smoke: warm-up request claims warm state" >&2
    exit 1
}
client evaluate --file "$spec" --burst 8 > "$workdir/burst.json"
hits=$(grep -c '"warm":true' "$workdir/burst.json")
if [ "$hits" -ne 8 ]; then
    echo "serve_smoke: expected 8 warm replies in the burst, got $hits" >&2
    cat "$workdir/burst.json" >&2
    exit 1
fi

status=$(client status)
echo "$status" | grep -q '"cache_hits":8' || {
    echo "serve_smoke: daemon counters disagree: $status" >&2
    exit 1
}
echo "$status" | grep -q '"worker_respawns":0' || {
    echo "serve_smoke: undisturbed burst respawned a worker: $status" >&2
    exit 1
}

# The reply memo: three identical repair requests.  The two repeats are
# answered from the daemon's memo: the first reply, apart from "warm".
for n in 1 2 3; do
    client repair --file "$spec" | sed 's/"warm":true/"warm":false/' \
        > "$workdir/repair$n.json"
done
for n in 2 3; do
    cmp -s "$workdir/repair1.json" "$workdir/repair$n.json" || {
        echo "serve_smoke: repeat $n differs from the first repair reply:" >&2
        cat "$workdir/repair1.json" "$workdir/repair$n.json" >&2
        exit 1
    }
done
status=$(client status)
echo "$status" | grep -q '"replies_reused":2' || {
    echo "serve_smoke: expected 2 reused repair replies: $status" >&2
    exit 1
}

# Chaos: SIGKILL the worker mid-request.  The client must get an error
# reply (exit 1), the respawn counter must tick, and the daemon must keep
# answering — including from state the dead worker never got to warm.
if client evaluate --file "$spec" --chaos kill > "$workdir/crash.json"; then
    echo "serve_smoke: chaos-killed request did not fail" >&2
    exit 1
fi
grep -q '"code":"worker_crashed"' "$workdir/crash.json" || {
    echo "serve_smoke: expected a worker_crashed reply:" >&2
    cat "$workdir/crash.json" >&2
    exit 1
}
client evaluate --file "$spec" > "$workdir/after.json"
grep -q '"ok":true' "$workdir/after.json" || {
    echo "serve_smoke: daemon stopped answering after a worker crash" >&2
    exit 1
}
client status | grep -q '"worker_respawns":1' || {
    echo "serve_smoke: crash did not tick the respawn counter" >&2
    exit 1
}

stop_daemon

[ -s "$telem" ] || {
    echo "serve_smoke: daemon wrote no telemetry" >&2
    exit 1
}
grep -q '"event":"shutdown"' "$telem" || {
    echo "serve_smoke: telemetry lacks the shutdown record" >&2
    exit 1
}

# Admission: one request is dispatched and sleeps, two wait in the queue,
# and the fourth finds max-inflight reached.  Chaos requests skip the
# reply memo, so the count does not depend on timing.
start_daemon --workers 1 --max-inflight 3
client repair --file "$spec" --chaos sleep:1500 --burst 4 \
    > "$workdir/admission.json" || true
refused=$(grep -c '"code":"overloaded"' "$workdir/admission.json" || true)
if [ "$refused" -ne 1 ]; then
    echo "serve_smoke: expected 1 overloaded reply in the burst of 4, got $refused" >&2
    cat "$workdir/admission.json" >&2
    exit 1
fi
stop_daemon

if [ -n "${SERVE_ARTIFACTS_DIR:-}" ]; then
    mkdir -p "$SERVE_ARTIFACTS_DIR"
    cp "$telem" "$SERVE_ARTIFACTS_DIR/serve_telemetry.jsonl"
fi

echo "serve_smoke: ok (8/8 warm hits, 2/2 reused repair replies, crash cost one request, clean SIGTERM shutdown, 1/4 refused at max-inflight 3)"
