#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload sweep-exact --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build outputs (the Go build cache and
# the binary) go to .bench_build/ under the root, so nothing is written
# outside the checkout. The build fails, and so does this script, when
# the simulator sources are not beside bench/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

cd "$root/bench"
go build -o "$build/bench" .
exec "$build/bench" "$@"
