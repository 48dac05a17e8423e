#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ (Go caches included, so a run
# reads and writes nothing outside the checkout) and runs it with the
# arguments given. Run from the root of the checkout:
#
#   bash bench/run.sh --workload node-large --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$build/declusterbench" .
exec "$build/declusterbench" "$@"
