#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given (see main.go; BENCHMARK.json names this script).
#
#   bash bench/run.sh --workload edit_mesh --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare parent.jsonl change.jsonl
#
# Everything the build and the run write stays under the checkout: the Go
# build cache and temporary files in .bench_build/, results in bench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."

build=.bench_build
mkdir -p "$build/tmp"
export GOCACHE="$PWD/$build/gocache" GOTMPDIR="$PWD/$build/tmp"
BENCH_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
export BENCH_COMMIT

# Fails, with no result printed, where the simulator's sources are absent.
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
