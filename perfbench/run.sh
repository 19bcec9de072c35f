#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload chip_stream --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare -k 10 -workloads optimize,big_tree
#
# The Go build cache, the build's temporary files, the binary, the run's
# inputs and its spans all stay under .bench_build in the root; nothing is
# fetched.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
