#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload parsec-fig5 --seed 1 --seconds 30 --trace 0
#
# Run it from the root of a checkout. Every build and run product stays
# under .bench_build/ in the checkout: the Go build cache, module cache,
# temporary files and the binary itself.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOENV=off

cd "$root"
go build -o "$build/perfbench" ./perfbench
exec "$build/perfbench" "$@"
