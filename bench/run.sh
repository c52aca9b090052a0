#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json): build bench/ from source into
# .bench_build/ at the root of the checkout, then run it with the arguments
# given. The Go build cache is kept inside the checkout too, so nothing is
# written outside it; after the first build a rebuild is a cache hit.
set -euo pipefail
root=$(pwd)
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOFLAGS=-mod=mod
mkdir -p "$root/.bench_build"
go build -o "$root/.bench_build/albatross-bench" ./bench
exec "$root/.bench_build/albatross-bench" "$@"
