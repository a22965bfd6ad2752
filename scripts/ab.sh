#!/usr/bin/env bash
# ab.sh — an A/B comparison of the end-to-end benchmark (BENCHMARK.json,
# bench/) between two git revisions, in alternating pairs.
#
# The host drifts more than most gains worth claiming, so two separate
# sets of runs compare nothing. This builds ./bench at A and at B (each
# in its own temporary git worktree), then runs N pairs, flipping which
# side goes first in each pair, and prints per workload and metric the
# median and quartiles of each side, the change of the medians, and in
# how many pairs B beat A (better is "higher" or "lower" as
# BENCHMARK.json declares it). Exits non-zero if a run fails the
# bench's correctness gate or if A's and B's plan digests differ in any
# pair: same seed and scale must schedule identically unless a change
# says otherwise.
#
# Usage (from anywhere in the repository):
#
#   scripts/ab.sh A B [-workload W] [-pairs N] [-seed S] [-scale X]
#
# A and B are any revisions git understands (a commit, a branch, HEAD~1,
# or the commit `git stash create` makes of an uncommitted tree). -pairs
# defaults to 5 and -seed to 1; without -workload all four workloads
# run, without -scale at full size.
set -euo pipefail

usage() {
    echo "usage: scripts/ab.sh A B [-workload W] [-pairs N] [-seed S] [-scale X]" >&2
    exit 2
}

[ $# -ge 2 ] || usage
A=$1 B=$2
shift 2
WORKLOAD= PAIRS=5 SEED=1 SCALE=
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
    -workload) WORKLOAD=$2 ;;
    -pairs) PAIRS=$2 ;;
    -seed) SEED=$2 ;;
    -scale) SCALE=$2 ;;
    *) usage ;;
    esac
    shift 2
done
[[ $PAIRS =~ ^[1-9][0-9]*$ ]] || usage

GO=${GO:-go}
ROOT=$(git rev-parse --show-toplevel)
REV_A=$(git -C "$ROOT" rev-parse --verify "$A^{commit}")
REV_B=$(git -C "$ROOT" rev-parse --verify "$B^{commit}")
TMP=$(mktemp -d)
cleanup() {
    for side in a b; do
        if [ -d "$TMP/src-$side" ]; then
            git -C "$ROOT" worktree remove --force "$TMP/src-$side" || true
        fi
    done
    git -C "$ROOT" worktree prune
    rm -rf "$TMP"
}
trap cleanup EXIT

for side in a b; do
    rev=$REV_A
    [ $side = b ] && rev=$REV_B
    git -C "$ROOT" worktree add --detach --quiet "$TMP/src-$side" "$rev"
    (cd "$TMP/src-$side" && "$GO" build -o "$TMP/bench-$side" ./bench)
done

args=(-seed "$SEED")
[ -n "$WORKLOAD" ] && args+=(-workload "$WORKLOAD")
[ -n "$SCALE" ] && args+=(-scale "$SCALE")

echo "ab: A=${REV_A:0:12} ($A)  B=${REV_B:0:12} ($B)  pairs=$PAIRS seed=$SEED scale=${SCALE:-1} workload=${WORKLOAD:-all}"
for ((pair = 1; pair <= PAIRS; pair++)); do
    order="a b"
    ((pair % 2)) || order="b a"
    for side in $order; do
        log="$TMP/$side.$pair.log"
        if ! "$TMP/bench-$side" "${args[@]}" >"$log" 2>&1; then
            echo "ab: pair $pair, side ${side^^}: the bench failed" >&2
            cat "$log" >&2
            exit 1
        fi
        # One row per metric: pair side workload metric value; the
        # digest is a metric whose value is a string.
        awk -v pair=$pair -v side=$side '
            /^== / { w = $2 }
            / digest / { print pair, side, w, "digest", $NF; next }
            NF == 3 && $1 ~ /^[a-z0-9_]+$/ && $2 ~ /^-?[0-9.e+-]+$/ { print pair, side, w, $1, $2 }
        ' "$log" >>"$TMP/rows"
    done
    first=${order:0:1}
    echo "ab: pair $pair done (${first^^} first)"
done

awk -v pairs=$PAIRS '
    # BENCHMARK.json, pretty-printed: a "better" line follows its "name".
    FNR == NR {
        if ($1 == "\"name\":") { name = $2; gsub(/[",]/, "", name) }
        if ($1 == "\"better\":") { b = $2; gsub(/[",]/, "", b); better[name] = b }
        next
    }
    {
        key = $3 SUBSEP $4
        if (!(key in seen)) { seen[key] = 1; order[++nkeys] = key }
        if (!($3 in wseen)) { wseen[$3] = 1; worder[++nw] = $3 }
        val[key, $2, $1] = $5
    }
    # q returns the p-quantile (linear interpolation) of side s of key k.
    function q(k, s, p,    i, j, n, x, t, h) {
        n = 0
        for (i = 1; i <= pairs; i++) x[++n] = val[k, s, i] + 0
        for (i = 2; i <= n; i++) {
            t = x[i]
            for (j = i - 1; j >= 1 && x[j] > t; j--) x[j + 1] = x[j]
            x[j + 1] = t
        }
        h = (n - 1) * p + 1
        i = int(h)
        return i >= n ? x[n] : x[i] + (h - i) * (x[i + 1] - x[i])
    }
    END {
        bad = 0
        for (wi = 1; wi <= nw; wi++) {
            w = worder[wi]
            printf "\n== %s (%d pairs)\n", w, pairs
            printf "%-24s %12s %23s %12s %23s %8s %7s\n", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "change", "B wins"
            for (ki = 1; ki <= nkeys; ki++) {
                split(order[ki], kw, SUBSEP)
                if (kw[1] != w) continue
                m = kw[2]
                k = order[ki]
                if (m == "digest") {
                    same = 0
                    for (i = 1; i <= pairs; i++) if (val[k, "a", i] == val[k, "b", i]) same++
                    printf "%-24s A %s  B %s  equal in %d/%d pairs\n", m, val[k, "a", 1], val[k, "b", 1], same, pairs
                    if (same != pairs) bad = 1
                    continue
                }
                wins = 0
                for (i = 1; i <= pairs; i++) {
                    d = val[k, "b", i] - val[k, "a", i]
                    if ((better[m] == "higher" && d > 0) || (better[m] == "lower" && d < 0)) wins++
                }
                ma = q(k, "a", 0.5); mb = q(k, "b", 0.5)
                change = ma != 0 ? sprintf("%+.1f%%", 100 * (mb - ma) / ma) : "n/a"
                printf "%-24s %12.4g %23s %12.4g %23s %8s %4d/%d\n", m,
                    ma, sprintf("[%.4g, %.4g]", q(k, "a", 0.25), q(k, "a", 0.75)),
                    mb, sprintf("[%.4g, %.4g]", q(k, "b", 0.25), q(k, "b", 0.75)), change, wins, pairs
            }
        }
        if (bad) { print "\nab: plan digests differ between A and B" > "/dev/stderr"; exit 1 }
    }
' "$ROOT/BENCHMARK.json" "$TMP/rows"
