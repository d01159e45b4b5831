#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the
# build and the run write inside the checkout (.bench_build/). This is
# BENCHMARK.json's command; `go run ./benchmark` is the same program.
set -euo pipefail
root="$PWD"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
export GOPATH="$build/gopath" TMPDIR="$build/tmp"
go build -o "$build/nice-benchmark" ./benchmark
exec "$build/nice-benchmark" "$@"
