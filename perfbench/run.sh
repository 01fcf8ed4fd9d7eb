#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload, from the root of
# a checkout:
#
#   bash perfbench/run.sh --workload persist|serve|churn --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, run scratch files, span traces
# and the determinism fingerprints.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod \
	GOPROXY=off GOWORK=off GOTELEMETRY=off
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
