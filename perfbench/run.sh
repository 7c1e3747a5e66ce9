#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload join-orku-hi --seed 1 --seconds 20 --trace 0
#
# Run from the root of a checkout. Everything the build and the run
# write (Go build cache, binary, WAL and scratch directories) stays
# under .bench_build/ in the checkout. The last line of standard output
# is the JSON result; the exit code is non-zero on any failed operation
# or correctness check, and when the sources cannot be built.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off

# The build log goes to stderr so that stdout carries only results.
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
