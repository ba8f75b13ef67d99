#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it from the
# checkout root, passing every argument through:
#
#   bash benchmark/run.sh --workload oltp --seed 1 --seconds 20 --trace 0
#
# The Go build cache, GOPATH and Go's own config directory live under
# .bench_build/ so that building and running write nothing outside the
# checkout. Outside a full checkout (no ../go.mod) the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-build" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
(cd "$root/benchmark" && go build -o "$out/benchmark" .)
cd "$root"
exec "$out/benchmark" "$@"
