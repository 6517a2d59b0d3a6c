#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it, passing
# every argument through. Run it from the root of the checkout:
#
#   bash abwbench/run.sh --workload paper-quick --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, and the spans of a traced run.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
(cd "$root/abwbench" && go build -o "$build/abwbench" .)
exec "$build/abwbench" "$@"
