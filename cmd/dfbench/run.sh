#!/usr/bin/env bash
# Builds dfbench from the surrounding checkout and runs it with the given
# arguments, e.g.
#
#   bash cmd/dfbench/run.sh --workload serial-table2 --seed 1000 --seconds 20 --trace 0
#
# The binary, the Go build cache and the toolchain's other state stay under
# .bench_build/ at the repository root. A failed build exits non-zero before
# anything is measured.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$root/cmd/dfbench" build -o "$out/dfbench" .
exec "$out/dfbench" "$@"
