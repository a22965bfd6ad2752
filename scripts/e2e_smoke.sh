#!/usr/bin/env bash
# e2e_smoke.sh — a small pass over the end-to-end benchmark
# (BENCHMARK.json, bench/): all four workloads at a twentieth of their
# size, twice. Fails if either run exits non-zero — the bench's own
# correctness gate printed correct:false — or if any workload's plan
# digest differs between the two runs (same commit, seed and scale
# must schedule identically). Timings are not looked at.
#
# Usage: scripts/e2e_smoke.sh   (from the repository root)
set -euo pipefail

GO=${GO:-go}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# digests prints "<workload> <digest>" per workload of one bench output.
digests() {
    awk '/^== /{w=$2} / digest /{print w, $NF}' "$1"
}

for run in 1 2; do
    echo "== e2e-smoke: run $run =="
    "$GO" run ./bench -scale 0.05 > "$TMP/run$run.log" || {
        echo "e2e-smoke: run $run failed its correctness gate" >&2
        cat "$TMP/run$run.log" >&2
        exit 1
    }
    digests "$TMP/run$run.log" | tee "$TMP/digests$run"
done

[ -s "$TMP/digests1" ] || {
    echo "e2e-smoke: no digest line in the bench output" >&2
    exit 1
}
diff "$TMP/digests1" "$TMP/digests2" || {
    echo "e2e-smoke: plan digests differ between two runs of one commit" >&2
    exit 1
}
echo "e2e-smoke: OK"
