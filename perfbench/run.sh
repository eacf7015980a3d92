#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload hamr-wordcount --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build product (binary, Go build
# cache, temporary files) stays under .bench_build in the current
# directory, or under $CARGO_TARGET_DIR when that is set. Module downloads
# are disabled: the benchmark needs nothing outside the repository.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
