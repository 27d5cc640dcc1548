#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything it
# writes (Go build cache, binary, fixtures, scratch databases, traces)
# under .bench_build in the checkout it is run from:
#
#   bash benchmark/run.sh --workload zoom_cold --seed 1 --seconds 15 --trace 0
set -euo pipefail
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local
go -C "$src" build -o "$build/repro-benchmark" .
exec "$build/repro-benchmark" -workdir "$build/work" "$@"
