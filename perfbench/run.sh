#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the
# given arguments. Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload cell-mem --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh smoke
#
# The build uses only the local Go toolchain and no network. Its cache,
# temporary files, Go's user configuration and the binary all live in
# .bench_build/ inside the checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp"
export XDG_CONFIG_HOME="$build/config"
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
