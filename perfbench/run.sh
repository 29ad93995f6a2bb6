#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the checkout
# root:
#
#   bash perfbench/run.sh --workload oltp-st-gen --seed 1 --seconds 15 --trace 0
#
# Every build product, cache, span file and profile goes under the
# build directory ($CARGO_TARGET_DIR when set, else .bench_build), so
# the run reads and writes nothing outside the checkout except the Go
# toolchain itself.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build/tmp"
build=$(cd "$build" && pwd)
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" -build "$build" "$@"
