#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash benchmark/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# The binary, Go's build cache and every file a run leaves behind stay under
# .bench_build in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
go build -C benchmark -o "$out/benchmark" .
exec "$out/benchmark" "$@"
