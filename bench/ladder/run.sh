#!/bin/sh
# Builds the ladder benchmark from source into .bench_build/ at the
# repository root and runs it there with the given arguments. The Go
# build cache and every temporary file stay under .bench_build/, so a
# run writes nothing outside the checkout.
#
#	bash bench/ladder/run.sh -workload serve-warm -seed 2
set -eu
root=$(cd "$(dirname "$0")/../.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters and env file
# under .bench_build/ too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS=
go -C "$root/bench/ladder" build -o "$build/ladder" .
cd "$root"
exec "$build/ladder" "$@"
