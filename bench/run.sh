#!/usr/bin/env bash
# Builds rtbench from source and runs it from the root of the checkout.
#
#   bench/run.sh --workload live-steady --seed 1 --seconds 20 --trace 0
#   bench/run.sh -seed 1            # the whole suite, every metric by name
#
# Everything the build writes — the binary and Go's build cache — stays in
# .bench_build/ inside the checkout, so the first run there compiles the
# standard library once and later runs only relink what changed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"          # the toolchain's work directories
export XDG_CONFIG_HOME="$build/config" # its telemetry counters and go/env
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local # never fetch a toolchain; the module needs none newer

# bench/ is its own module that replaces rtsads with the checkout above it,
# so a directory holding only the benchmark fails here, before any result.
(cd "$here" && go build -o "$build/rtbench" .)

cd "$root"
exec "$build/rtbench" "$@"
