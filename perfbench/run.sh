#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload cpu-ensemble --seed 1 --seconds 25 --trace 0
#
# Build outputs and Go's caches stay under .bench_build in the current
# directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
