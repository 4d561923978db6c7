#!/bin/sh
# Compares two `bfast-bench -exp tune -json` reports: the tuned-vs-default
# DetectBatch speedup of the new report against the old one. Exits
# non-zero when the speedup regressed by more than the tolerance
# (percent, default 10), or when the new report lost bit-identity with
# core.Detect. Used by `make bench-compare`:
#
#   bfast-bench -exp tune -json > old.json
#   ... change kernels ...
#   bfast-bench -exp tune -json > new.json
#   ./scripts/bench-compare.sh old.json new.json [tolerance-pct]
set -eu

if [ "$#" -lt 2 ]; then
    echo "usage: $0 OLD.json NEW.json [tolerance-pct]" >&2
    exit 2
fi
OLD=$1
NEW=$2
TOL=${3:-10}

command -v jq >/dev/null 2>&1 || {
    echo "bench-compare: jq is required" >&2
    exit 2
}

# The verification row lives at .results.tune.rows[0] and carries
# {TileWidth, Workers, Speedup, Identical}.
row() {
    jq -r '.results.tune.rows[0] // empty
           | "T=\(.TileWidth)/w=\(.Workers) \(.Speedup) \(.Identical)"' "$1"
}

old_row=$(row "$OLD")
new_row=$(row "$NEW")
if [ -z "$old_row" ] || [ -z "$new_row" ]; then
    echo "bench-compare: no tune rows found (need -exp tune reports)" >&2
    exit 2
fi

printf '%-14s %-14s %10s %10s %8s %10s\n' old-geometry new-geometry old new delta identical
set -- $old_row
old_geom=$1 old_speedup=$2
set -- $new_row
new_geom=$1 new_speedup=$2 identical=$3
if awk -v og="$old_geom" -v ng="$new_geom" -v o="$old_speedup" -v n="$new_speedup" -v id="$identical" -v tol="$TOL" '
    BEGIN {
        delta = (n - o) / o * 100
        printf "%-14s %-14s %9.2fx %9.2fx %+7.1f%% %10s\n", og, ng, o, n, delta, id
        bad = 0
        if (id != "true") { print "bench-compare: tuned geometry lost bit-identity with core.Detect" > "/dev/stderr"; bad = 1 }
        if (delta < -tol) { printf "bench-compare: speedup regressed %.1f%% (tolerance %s%%)\n", -delta, tol > "/dev/stderr"; bad = 1 }
        exit bad
    }'; then
    echo "bench-compare: OK (tolerance ${TOL}%)"
else
    echo "bench-compare: FAIL (tolerance ${TOL}%)" >&2
    exit 1
fi
