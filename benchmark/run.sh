#!/usr/bin/env bash
# The command BENCHMARK.json names. It keeps everything the build and the
# run leave behind inside the checkout, under .bench_build/: the go build
# cache, the benchmark and rpsd binaries, generated systems and traces.
# The first run in a checkout compiles the standard library into that
# cache (about 20 s); later runs find everything up to date.
#
#   bash benchmark/run.sh --workload peer_cold --seed 1 --seconds 10 --trace 0
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/bin/benchmark" ./benchmark
exec "$build/bin/benchmark" --work-dir "$build" "$@"
