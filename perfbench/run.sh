#!/usr/bin/env bash
# Builds the benchmark and the greensprint-bench figure harness from
# source, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload diurnal_year --seed 1 --seconds 20 --trace 0
#
# Every build artifact, cache and scratch file stays under .bench_build
# in the current directory. The Go toolchain runs offline.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
go build -o "$build/greensprint-bench" ./cmd/greensprint-bench
exec "$build/perfbench" -workdir "$build" -figbin "$build/greensprint-bench" "$@"
