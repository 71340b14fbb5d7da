#!/usr/bin/env bash
# Builds llstar-benchmark from the source tree it sits in and runs it
# with the given flags. Run it from the repository root:
#
#   bash cmd/llstar-benchmark/run.sh --workload parse-large --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, binaries,
# temporary files, traces) stays under .bench_build in the repository
# root. The first run builds the standard library into that cache.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	XDG_CACHE_HOME="$build/home/.cache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/cmd/llstar-benchmark" && go build -o "$build/llstar-benchmark" .)
exec "$build/llstar-benchmark" "$@"
