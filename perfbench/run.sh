#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it, passing the
# arguments through:
#
#   bash perfbench/run.sh --workload ssd-rw50 --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache, the go command's own state and every
# temporary file stay in .bench_build/ at the root of the checkout. Build
# messages go to standard error, so the last line of standard output is the
# benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/go-mod"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOENV=off
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
