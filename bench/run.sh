#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# repository root, passing every argument through:
#
#   bash bench/run.sh --workload warm --seed 1 --seconds 12 --trace 0
#
# The build cache, temporary files and the binary stay in .bench_build/ at
# the root; nothing outside the checkout is written.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd bench && go build -o "$out/ttsvbench" .)
exec "$out/ttsvbench" "$@"
