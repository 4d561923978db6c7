#!/usr/bin/env bash
# Builds perfbench inside the checkout and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload large_batch --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache,
# telemetry) lands under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
