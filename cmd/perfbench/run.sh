#!/usr/bin/env bash
# Builds dpbench and the benchmark driver from this checkout's
# sources, then runs the benchmark with the given arguments:
#
#   bash cmd/perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ at the
# root of the checkout, including the Go build cache and temp files.
set -euo pipefail
cd "$(dirname "$0")/../.."
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/bin/dpbench" ./cmd/dpbench
(cd cmd/perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
