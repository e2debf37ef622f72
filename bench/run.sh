#!/usr/bin/env bash
# Builds the benchmark from source into the checkout and runs it. Every
# file the build writes (binary, Go build cache, temp files) stays under
# .bench_build/ in the checkout root; the benchmark's own outputs go to
# bench/out/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C bench -o "$build/pathbench" .
exec "$build/pathbench" "$@"
