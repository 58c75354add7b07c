#!/usr/bin/env bash
# Builds the tick-path benchmark from this checkout's sources and runs it,
# passing every argument through:
#
#   bash tickbench/run.sh --workload bulk-durable --seed 1 --seconds 40 --trace 0
#
# Everything the build and the runs leave behind (Go build cache, binary,
# model fixtures, traces) goes under .bench_build in the checkout root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
state="$root/.bench_build"
mkdir -p "$state/tmp"
export GOCACHE="$state/gocache" GOMODCACHE="$state/gomodcache" GOPATH="$state/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off GOTELEMETRY=off
export XDG_CONFIG_HOME="$state/config" XDG_CACHE_HOME="$state/cache" TMPDIR="$state/tmp"
go -C tickbench build -o "$state/bin/tickbench" . >&2
exec "$state/bin/tickbench" "$@"
