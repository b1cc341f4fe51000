#!/usr/bin/env bash
# Entry point of BENCHMARK.json: builds the benchmark from source inside
# the checkout and runs one workload, passing its arguments through.
#
# Everything the build leaves behind (compiler cache included) goes under
# bench/out/build/, beside the runs' scratch files, so a run reads and
# writes only inside its checkout. Needs the go toolchain and the
# repository's go.mod; it fails, printing no result, in a directory that
# has neither.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

build="$root/bench/out/build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/tkmc-bench" ./bench
exec "$build/tkmc-bench" "$@"
