#!/usr/bin/env bash
# Builds the program's binaries and the benchmark from the checked-out
# tree, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload attack-sweep --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache
# stay under .bench_build/, so the build is counted in no metric and a
# second invocation reuses it.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/bin/" ./cmd/flexos-explore ./cmd/flexos-serve
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
