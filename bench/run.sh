#!/usr/bin/env bash
# Builds pilgrimbench from source and runs it: the `command` of
# BENCHMARK.json. Everything the build and the run write stays inside the
# checkout, under .bench_build/ (build cache, binaries, data directories)
# and bench/out/ (trace files); both are git-ignored.
#
#   bash bench/run.sh --workload poll-hit --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if ! grep -qx 'module pilgrim' go.mod 2>/dev/null; then
  echo "bench/run.sh: $PWD is not a checkout of the pilgrim module (the benchmark builds it from source)" >&2
  exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/pilgrimbench" ./bench/pilgrimbench
exec "$build/pilgrimbench" "$@"
