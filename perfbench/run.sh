#!/usr/bin/env bash
# Builds the perfbench command from source and runs it with the given
# arguments, from the root of a checkout of the repository:
#
#   bash perfbench/run.sh --workload hot-get --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays inside the checkout,
# under .bench_build (or $CARGO_TARGET_DIR when it is set).
set -eu

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/go-cache" "$build/tmp" "$build/home"

export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOPATH="$build/home/go" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -out "$build/perfbench-out" "$@"
