#!/usr/bin/env bash
# perf_ab.sh — same-host A/B simulator-throughput gate.
#
#   scripts/perf_ab.sh BASE_DIR
#
# BASE_DIR is a checkout of the base commit (CI's perf-smoke job makes one
# with `git worktree add`). For the oltp and dss workloads, runs
#
#   bash benchmark/run.sh --workload W --seconds 5 --trace 0
#
# in the base checkout and in this one, three times each, alternating the
# side that goes first.
# Fails when any run does not report "correct": true, or when
# this checkout's median sim_minstr_per_s is more than 15% below the base's
# on either workload. Both sides run on the same host in the same minutes,
# so the band only has to absorb run-to-run noise, not host differences.
set -euo pipefail
here=$(cd "$(dirname "$0")/.." && pwd)
base=$(cd "${1:?usage: $0 BASE_DIR}" && pwd)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

for w in oltp dss; do
    for order in "base change" "change base" "base change"; do
        for side in $order; do
            dir=$here
            [ "$side" = base ] && dir=$base
            line=$(cd "$dir" && bash benchmark/run.sh --workload "$w" --seconds 5 --trace 0 | tail -n 1)
            echo "$w $side: $line" >&2
            echo "$line" >> "$out/$w.$side"
        done
    done
done

python3 - "$out" <<'EOF'
import json, pathlib, statistics, sys

out, failed = pathlib.Path(sys.argv[1]), False
for w in ("oltp", "dss"):
    med = {}
    for side in ("base", "change"):
        runs = [json.loads(l) for l in (out / f"{w}.{side}").read_text().splitlines()]
        if not all(r["correct"] is True for r in runs):
            print(f"{w}: a {side} run is not correct")
            failed = True
        med[side] = statistics.median(r["metrics"]["sim_minstr_per_s"]["value"] for r in runs)
    delta = med["change"] / med["base"] - 1
    status = "REGRESSION" if delta < -0.15 else "ok"
    failed |= status != "ok"
    print(f"{w:5} base {med['base']:.3f}  change {med['change']:.3f}  sim_minstr_per_s  {delta:+.1%}  {status}")
sys.exit(1 if failed else 0)
EOF
