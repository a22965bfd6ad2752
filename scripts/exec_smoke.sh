#!/usr/bin/env bash
# exec_smoke.sh — end-to-end smoke test of the execution-stage runtime
# with real processes: a reassign master listens on loopback, a stray
# JSON-lines (wire v1) greeting connects first and must be rejected
# without ending the join, two execworker processes join over TCP,
# Montage-50 executes, and the provenance output is checked for a
# complete, successful run. A second pass exercises the in-process transport
# under injected worker deaths (the acceptance scenario: zero lost
# activations despite failures).
#
# Usage: scripts/exec_smoke.sh [bindir]   (default ./bin)
set -euo pipefail

BIN=${1:-./bin}
ADDR=127.0.0.1:7077
TMP=$(mktemp -d)
MASTER= W1= W2=
# A failed run must not leave the master holding the port or the
# workers retrying against it.
trap 'for p in $MASTER $W1 $W2; do kill "$p" 2>/dev/null || true; done; rm -rf "$TMP"' EXIT

echo "== exec-smoke: TCP loopback master + stray v1 greeting + two execworkers =="
"$BIN/reassign" -sched heft -execute -workers 2 -listen "$ADDR" \
    -prov "$TMP/prov.json" > "$TMP/master.log" 2>&1 &
MASTER=$!
# A JSON-lines greeting reaches the master before any worker; it must
# be turned away without failing the join.
for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/${ADDR%:*}/${ADDR#*:}" && echo '{"type":"hello","slots":4}' >&3) 2>/dev/null; then
        STRAY=1
        break
    fi
    sleep 0.1
done
[ -n "${STRAY:-}" ] || {
    echo "exec-smoke: master never listened" >&2
    cat "$TMP/master.log" >&2
    exit 1
}
"$BIN/execworker" -connect "$ADDR" -retry 30s &
W1=$!
"$BIN/execworker" -connect "$ADDR" -retry 30s &
W2=$!

if ! wait "$MASTER"; then
    echo "exec-smoke: master failed" >&2
    cat "$TMP/master.log" >&2
    exit 1
fi
wait "$W1" "$W2" || true
cat "$TMP/master.log"

grep -q 'executed: 50/50' "$TMP/master.log" || {
    echo "exec-smoke: master did not execute all 50 activations" >&2
    exit 1
}
grep -q '"success": true' "$TMP/prov.json" || {
    echo "exec-smoke: provenance has no successful records" >&2
    exit 1
}
if grep -q '"success": false' "$TMP/prov.json"; then
    echo "exec-smoke: provenance has failed records" >&2
    exit 1
fi

echo "== exec-smoke: in-process workers under injected deaths =="
"$BIN/reassign" -sched heft -execute -workers 4 -faultrate 0.05 -failrate 0.05 \
    > "$TMP/fault.log" 2>&1
cat "$TMP/fault.log"
grep -q 'executed: 50/50' "$TMP/fault.log" || {
    echo "exec-smoke: faulty run lost activations" >&2
    exit 1
}
grep -q ' 0 abandoned' "$TMP/fault.log" || {
    echo "exec-smoke: faulty run abandoned activations" >&2
    exit 1
}

echo "exec-smoke: OK"
