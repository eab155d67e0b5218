#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes (Go's build cache, temporary files, the
# binary) stays in .bench_build at the root of the checkout; the program
# itself runs from bench/ and writes only bench/out.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
cd "$root/bench"
go build -o "$build/salus-bench" .
exec "$build/salus-bench" "$@"
