#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from,
# then runs it with the given arguments. Run it from the root of the
# checkout, for example:
#
#   bash perfbench/run.sh --workload epoch-fit --seed 1 --seconds 10 --trace 0
#
# Build caches, scratch tiers and span files all stay inside the
# checkout: .bench_build, .bench_run and .bench_spans.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --dir "$root/.bench_run" --spans "$root/.bench_spans" "$@"
