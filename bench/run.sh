#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs it from the repository
# root. Every argument is passed to the benchmark, e.g.
#
#   bash bench/run.sh --workload global-lp --seed 1 --seconds 12 --trace 0
#
# The benchmark is a Go module of its own (bench/go.mod) that builds the
# repository's packages through a replace directive, so it compiles only
# inside a full checkout. Build outputs and the Go build cache stay under
# .bench_build/ in the checkout; nothing is downloaded.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The go command keeps its cache, temporary files and (through the user
# config directory) its telemetry counters under $out.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C bench -o "$out/skewbench" .
exec "$out/skewbench" "$@"
