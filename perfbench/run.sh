#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload fig3_sweep --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary, per-run data directories and span files all
# live under $CARGO_TARGET_DIR (default .bench_build), so nothing is written
# outside the checkout.
set -euo pipefail

build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$PWD/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --work "$build" "$@"
