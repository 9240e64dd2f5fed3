#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload jobs-tcp --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the toolchain's config directory and the binary live
# in .bench_build, so the build writes nothing outside the checkout; the
# first run compiles everything and later runs only relink. The toolchain
# stays offline: it uses the local Go and never fetches modules.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/benchmark" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
