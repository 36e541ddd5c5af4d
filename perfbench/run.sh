#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fulltable --seed 1 --seconds 20 --trace 0
#
# Go's build cache and the binary stay under .bench_build, so a run
# reads and writes nothing outside the checkout but the Go toolchain.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal/server ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench/run.sh: run from the repository root; the mux sources are not here" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
