#!/usr/bin/env bash
# market_smoke.sh — end-to-end smoke test of the spot-market subsystem:
# generate a seeded hostile trace (twice — the two files must be
# bit-identical), check that -market without -execute is refused (the
# simulator has no market replay), then replay it through the exec
# master over in-process workers with both market policies, asserting
# the notice-reactive run pays no more than reactive-only for the same
# trace, and once more with the default worker count, which must still
# honour -market.
#
# Usage: scripts/market_smoke.sh [bindir]   (default ./bin)
set -euo pipefail

BIN=${1:-./bin}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

echo "== market-smoke: deterministic trace generation =="
GEN="-regime hostile -horizon 900 -seed 5"
"$BIN/reassign" -marketgen "$TMP/trace.json" $GEN | tee "$TMP/gen.log"
"$BIN/reassign" -marketgen "$TMP/trace2.json" $GEN > /dev/null
cmp "$TMP/trace.json" "$TMP/trace2.json" || {
    echo "market-smoke: same seed produced different traces" >&2
    exit 1
}
grep -qE 'hostile trace written .* [1-9][0-9]* events' "$TMP/gen.log" || {
    echo "market-smoke: generated trace has no events" >&2
    exit 1
}

echo "== market-smoke: -market without -execute is refused =="
if "$BIN/reassign" -market "$TMP/trace.json" -sched rr > /dev/null 2> "$TMP/sim.err"; then
    echo "market-smoke: -market without -execute exited zero" >&2
    exit 1
fi
cat "$TMP/sim.err"
grep -q -- '-execute' "$TMP/sim.err" || {
    echo "market-smoke: -market without -execute failed without naming -execute" >&2
    exit 1
}

echo "== market-smoke: exec master replay, both policies =="
"$BIN/reassign" -market "$TMP/trace.json" -episodes 10 -execute -workers 4 \
    | tee "$TMP/nr.log"
"$BIN/reassign" -market "$TMP/trace.json" -episodes 10 -execute -workers 4 \
    -reactiveonly | tee "$TMP/ro.log"
for log in nr ro; do
    grep -q '50/50 activations' "$TMP/$log.log" || {
        echo "market-smoke: $log run lost activations" >&2
        exit 1
    }
    grep -qE 'market: +[0-9]+ notices.*bill \$0\.[0-9]+' "$TMP/$log.log" || {
        echo "market-smoke: $log run produced no market summary" >&2
        exit 1
    }
done

echo "== market-smoke: -execute without -workers still executes under the market =="
"$BIN/reassign" -market "$TMP/trace.json" -episodes 10 -execute | tee "$TMP/default.log"
grep -q '50/50 activations' "$TMP/default.log" || {
    echo "market-smoke: default-workers run lost activations" >&2
    exit 1
}
grep -qE 'market: +[0-9]+ notices, [0-9]+ kills, [0-9]+ cordoned, [0-9]+ remediated' "$TMP/default.log" || {
    echo "market-smoke: -execute without -workers ignored -market" >&2
    exit 1
}

# Same trace, same plan inputs: the notice-reactive bill must not
# exceed the reactive-only bill (both buy replacements at kill time;
# notice-reactive additionally saves straddle-kill retries).
nr_bill=$(grep -oE 'bill \$[0-9.]+' "$TMP/nr.log" | grep -oE '[0-9.]+')
ro_bill=$(grep -oE 'bill \$[0-9.]+' "$TMP/ro.log" | grep -oE '[0-9.]+')
awk -v nr="$nr_bill" -v ro="$ro_bill" 'BEGIN { exit !(nr <= ro + 1e-9) }' || {
    echo "market-smoke: notice-reactive bill $nr_bill exceeds reactive-only $ro_bill" >&2
    exit 1
}
echo "market-smoke: bills nr=\$$nr_bill ro=\$$ro_bill"

echo "market-smoke: OK"
