#!/usr/bin/env bash
# schedd_smoke.sh — end-to-end smoke test of the scheduler service:
# start a schedd daemon on loopback, drive 50 concurrent jobs through
# it with schedload, assert non-zero throughput and a warm Q-table
# cache, then deliver SIGTERM and assert a clean drain.
#
# Usage: scripts/schedd_smoke.sh [bindir]   (default ./bin)
set -euo pipefail

BIN=${1:-./bin}
ADDR=127.0.0.1:8425
TMP=$(mktemp -d)
DAEMON=
# A failed assertion must not leave the daemon holding the port.
trap '[ -n "$DAEMON" ] && kill "$DAEMON" 2>/dev/null; rm -rf "$TMP"' EXIT

echo "== schedd-smoke: daemon + 50 concurrent jobs =="
"$BIN/schedd" -listen "$ADDR" -queue 128 -workers 2 > "$TMP/schedd.log" 2>&1 &
DAEMON=$!

# Wait for the listener.
for _ in $(seq 1 50); do
    if grep -q 'listening on' "$TMP/schedd.log"; then break; fi
    sleep 0.1
done
grep -q 'listening on' "$TMP/schedd.log" || {
    echo "schedd-smoke: daemon never listened" >&2
    cat "$TMP/schedd.log" >&2
    exit 1
}

"$BIN/schedload" -addr "http://$ADDR" -jobs 50 -concurrency 50 \
    -nodes 50 -episodes 10 -distinct 2 | tee "$TMP/load.log"

grep -q '50 done, 0 failed, 0 rejected' "$TMP/load.log" || {
    echo "schedd-smoke: jobs failed or were rejected" >&2
    exit 1
}
# Non-zero throughput (the line always prints; 0.00 would mean a hang).
grep -q 'throughput' "$TMP/load.log" || {
    echo "schedd-smoke: no throughput report" >&2
    exit 1
}
if grep -qE 'throughput +0\.00 jobs/s' "$TMP/load.log"; then
    echo "schedd-smoke: zero throughput" >&2
    exit 1
fi
# Two distinct structures across 50 jobs on two workers: each worker
# can start each structure cold before the other has stored its table,
# so at most 2 x 2 = 4 cold starts and at least 46 warm ones.
hits=$(grep -oE 'cache hits +[0-9]+/50' "$TMP/load.log" | grep -oE '[0-9]+/' | tr -d /)
[ -n "$hits" ] && [ "$hits" -ge 46 ] || {
    echo "schedd-smoke: cache hits ${hits:-?}/50, want >= 46" >&2
    exit 1
}

# /metrics serves both the learning telemetry and the daemon series.
curl -sf "http://$ADDR/metrics" > "$TMP/metrics.prom"
for metric in reassign_episodes_total schedd_jobs_completed_total \
    schedd_qtable_cache_hits_total schedd_workflow_intern_hits_total \
    schedd_workflow_intern_misses_total schedd_workflow_intern_entries \
    schedd_job_latency_seconds_p99; do
    grep -q "$metric" "$TMP/metrics.prom" || {
        echo "schedd-smoke: /metrics missing $metric" >&2
        exit 1
    }
done

echo "== schedd-smoke: clean shutdown =="
kill -TERM "$DAEMON"
if ! wait "$DAEMON"; then
    echo "schedd-smoke: daemon exited non-zero" >&2
    cat "$TMP/schedd.log" >&2
    exit 1
fi
DAEMON= # reaped: nothing left for the trap to kill
grep -q 'shutdown clean' "$TMP/schedd.log" || {
    echo "schedd-smoke: no clean shutdown message" >&2
    cat "$TMP/schedd.log" >&2
    exit 1
}

echo "schedd-smoke: OK"
