#!/usr/bin/env bash
# Builds rairperf inside the checkout and runs it with the arguments given:
#   bash bench/run.sh --workload quad8 --seed 1 --seconds 10 --trace 0
# The binary, the Go build cache and everything else the build leaves behind
# stay under .bench_build at the root of the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/rairperf" ./rairperf
cd "$root"
exec "$build/rairperf" "$@"
