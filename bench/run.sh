#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. The build cache and the binary live under
# .bench_build/ at the root of the checkout, so nothing is written
# outside it; a checkout without the repository's sources fails here,
# at the build, with a non-zero exit.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" -out "$root/bench/out" "$@"
