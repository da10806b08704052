#!/bin/bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the root of a checkout) and runs it with the arguments
# given. The Go build cache lives there too, so nothing outside the
# checkout is written.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
