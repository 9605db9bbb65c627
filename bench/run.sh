#!/usr/bin/env bash
# Entry point of the benchmark, run from the checkout root:
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Builds the harness (and, through it, cmd/celeste) from the checkout's
# source and runs it. Everything the Go tool writes — build cache, temporary
# files, its own configuration and telemetry — is kept under .bench_build/ in
# the checkout. In a directory without the program's source the build fails
# and nothing is printed on standard output.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/home"
unset XDG_CONFIG_HOME XDG_CACHE_HOME
export HOME="$build/home" GOPATH="$build/gopath" GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" \
	GOPROXY=off GOTOOLCHAIN=local
go build -o "$build/bench" .
exec "$build/bench" "$@"
