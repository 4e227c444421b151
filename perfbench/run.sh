#!/usr/bin/env bash
# Builds the benchmark and the mtatd daemon from this checkout, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload mtat-cells --seed 1 --seconds 25 --trace 0
#
# Every build output, cache and temporary file stays under .bench_build/
# in the checkout, and the Go toolchain is kept offline.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
	GOFLAGS= GOENV=off

go -C "$root/perfbench" build -o "$out/perfbench" .
go build -o "$out/mtatd" ./cmd/mtatd
# Write back the freshly linked binaries now, so that the flush does not
# stall the service workload's journal fsyncs.
sync
exec "$out/perfbench" -mtatd "$out/mtatd" "$@"
