#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload corpus --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build product and the Go build
# cache live under .bench_build/ in that directory, so nothing is read or
# written outside it. The result is the last line of standard output.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off GOWORK=off

# The benchmark is its own module and builds against the repository one
# directory up; outside a checkout this fails, and so does the benchmark.
# The go command's own state (telemetry counters) goes under .bench_build.
(cd "$root/perfbench" &&
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
