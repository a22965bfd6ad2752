#!/usr/bin/env bash
# changelog_check.sh — fail if CHANGES.md lost or rewrote a line.
#
# CHANGES.md is append-only: every line it held at the base revision
# must still be in the working tree's copy, in the same order. The one
# rewrite allowed is a finding marked mended: a line
#
#   - FOUND: <text>
#
# may become
#
#   - MENDED (<what mended it>): <text>
#
# Usage (from anywhere in the repository):
#
#   scripts/changelog_check.sh [BASE]
#
# BASE defaults to the merge base of HEAD and origin/main, or HEAD
# when there is no origin/main. Outside a git checkout there is no
# history to hold the file to, and the check says so and passes.
set -euo pipefail

ROOT=$(git rev-parse --show-toplevel 2>/dev/null) || {
    echo "changelog-check: not a git checkout; nothing to compare against" >&2
    exit 0
}
if [ $# -ge 1 ]; then
    BASE=$1
elif git -C "$ROOT" rev-parse --verify --quiet origin/main >/dev/null; then
    BASE=$(git -C "$ROOT" merge-base HEAD origin/main)
else
    BASE=HEAD
fi
BASE=$(git -C "$ROOT" rev-parse --verify "$BASE^{commit}")

old=$(mktemp)
trap 'rm -f "$old"' EXIT
if ! git -C "$ROOT" show "$BASE:CHANGES.md" >"$old" 2>/dev/null; then
    echo "changelog-check: no CHANGES.md at ${BASE:0:12}; nothing to compare against"
    exit 0
fi

awk -v base="${BASE:0:12}" '
    FNR == NR { old[++n] = $0; next }
    { cur[++m] = $0 }
    # mended reports whether c is o, a FOUND line, marked mended.
    function mended(o, c,    text) {
        if (substr(o, 1, 9) != "- FOUND: " || substr(c, 1, 10) != "- MENDED (") return 0
        text = substr(o, 10)
        return length(c) >= 10 + length(text) + 3 && substr(c, length(c) - length(text) - 2) == "): " text
    }
    END {
        j = 1
        for (i = 1; i <= n; i++) {
            for (k = j; k <= m; k++)
                if (cur[k] == old[i] || mended(old[i], cur[k])) break
            if (k > m) {
                printf "changelog-check: CHANGES.md line %d at %s is deleted or edited: %s\n", i, base, substr(old[i], 1, 100) > "/dev/stderr"
                bad = 1
                continue
            }
            j = k + 1
        }
        if (bad) exit 1
        printf "changelog-check: all %d lines of CHANGES.md at %s kept, in order\n", n, base
    }
' "$old" "$ROOT/CHANGES.md"
