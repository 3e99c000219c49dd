#!/usr/bin/env bash
# The benchmark's one command: builds bench/ (its own module) into
# .bench_build/ of the current checkout and runs it with the given flags.
# The Go caches, temporary files and the toolchain's own counters live in the
# checkout, so a run writes nowhere else.
#
#   bash bench/run.sh                      # all workloads, e2e + traced, writes bench/out/results.json
#   bash bench/run.sh --workload wide --seed 7 --seconds 15 --trace 0
#   bash bench/run.sh -compare a.json b.json
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$build/bin/bench" . >&2
exec "$build/bin/bench" "$@"
