#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness from the
# checkout it is run in and runs it with the given flags. The Go build
# cache and temporary files are kept under .bench_build in that
# checkout, so nothing is read or written outside it.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local

go build -o "$build/coflowbench" ./benchmark
exec "$build/coflowbench" "$@"
