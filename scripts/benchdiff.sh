#!/usr/bin/env bash
# benchdiff.sh — track raw simulator throughput.
#
# Runs BenchmarkSimulatorOLTP/DSS — COUNT repetitions each, default 3,
# medians taken — and rewrites BENCH_SIMULATOR.json with ns/op,
# allocs/op and sim_Minstr/s per benchmark. The previous file's numbers are
# carried into a "previous" block, so the committed JSON always records the
# before/after of the last perf change.
#
#   scripts/benchdiff.sh            # refresh BENCH_SIMULATOR.json
#   scripts/benchdiff.sh -check     # no rewrite: fail if sim_Minstr/s
#                                   # regressed >15% vs the committed file
#
# -check is CI's perf-smoke gate. Single-iteration runs are noisy (~±10%
# across repetitions), which is why medians are compared and the band is a
# generous 15%: it catches "accidentally disabled fast-forward"-sized
# regressions, not percent-level drift.
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${COUNT:-3}"
BASEFILE=BENCH_SIMULATOR.json
MODE=write
if [ "${1:-}" = "-check" ]; then
    MODE=check
elif [ $# -gt 0 ]; then
    echo "usage: $0 [-check]" >&2
    exit 2
fi

echo "running simulator benchmarks ($COUNT repetitions)..." >&2
out=$(go test -run '^$' -bench 'BenchmarkSimulator(OLTP|DSS)$' -benchmem -benchtime=1x -count="$COUNT" .)
printf '%s\n' "$out" >&2

# median BENCH UNIT — median of the value column reported just before UNIT
# across BENCH's repetitions ("BenchmarkSimulatorOLTP" or "...OLTP-8" forms).
median() {
    printf '%s\n' "$out" | awk -v b="$1" -v unit="$2" '
        $1 == b || $1 ~ "^"b"-[0-9]+$" {
            for (i = 2; i <= NF; i++) if ($i == unit) print $(i-1)
        }' | sort -g | awk '{ v[NR] = $1 } END {
            if (NR == 0) exit 1
            print v[int((NR + 1) / 2)]
        }'
}

# committed BENCH — the sim_minstr_per_s recorded for BENCH in $BASEFILE.
committed() {
    awk -v b="$1" '
        $0 ~ "\"" b "\"" { inb = 1 }
        inb && /"sim_minstr_per_s"/ {
            gsub(/[^0-9.]/, "", $2); print $2; exit
        }' "$BASEFILE"
}

benches="BenchmarkSimulatorOLTP BenchmarkSimulatorDSS"
for b in $benches; do
    if ! median "$b" "ns/op" >/dev/null; then
        echo "benchdiff: no output for $b" >&2
        exit 1
    fi
done

if [ "$MODE" = check ]; then
    [ -f "$BASEFILE" ] || { echo "benchdiff: no committed $BASEFILE to check against" >&2; exit 1; }
    fail=0
    for b in $benches; do
        base=$(committed "$b")
        fresh=$(median "$b" "sim_Minstr/s")
        if [ -z "$base" ]; then
            echo "benchdiff: $b missing from $BASEFILE" >&2
            exit 1
        fi
        awk -v base="$base" -v fresh="$fresh" -v b="$b" 'BEGIN {
            pct = (fresh / base - 1) * 100
            status = (fresh < 0.85 * base) ? "REGRESSION" : "ok"
            printf "%-24s baseline %8.3f  fresh %8.3f  sim_Minstr/s  %+6.1f%%  %s\n",
                b, base, fresh, pct, status
            exit (status == "REGRESSION") ? 1 : 0
        }' || fail=1
    done
    if [ "$fail" -ne 0 ]; then
        echo "benchdiff: sim_Minstr/s regressed >15% vs committed $BASEFILE" >&2
        echo "benchdiff: if the slowdown is intended, refresh the baseline with scripts/benchdiff.sh" >&2
        exit 1
    fi
    exit 0
fi

# Carry the outgoing numbers into "previous" so the file itself records the
# before/after of the refresh.
prev="{}"
if [ -f "$BASEFILE" ]; then
    prev=$(awk '/"benchmarks":/ { inb = 1; depth = 0 }
        inb { print }
        inb && /{/ { depth += gsub(/{/, "{") }
        inb && /}/ { depth -= gsub(/}/, "}"); if (depth <= 0) exit }' "$BASEFILE" \
        | sed -e '1s/.*"benchmarks"[[:space:]]*:[[:space:]]*//' -e '$s/},\{0,1\}[[:space:]]*$/}/')
    [ -n "$prev" ] || prev="{}"
fi

{
    printf '{\n'
    printf '  "generated": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "benchtime": "1x",\n'
    printf '  "count": %s,\n' "$COUNT"
    printf '  "benchmarks": {\n'
    first=1
    for b in $benches; do
        [ "$first" = 1 ] || printf ',\n'
        first=0
        printf '    "%s": {\n' "$b"
        printf '      "ns_per_op": %s,\n' "$(median "$b" "ns/op")"
        printf '      "allocs_per_op": %s,\n' "$(median "$b" "allocs/op")"
        printf '      "sim_minstr_per_s": %s\n' "$(median "$b" "sim_Minstr/s")"
        printf '    }'
    done
    printf '\n  },\n'
    printf '  "previous": %s\n' "$prev"
    printf '}\n'
} > "$BASEFILE"
echo "wrote $BASEFILE" >&2
