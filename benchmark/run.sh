#!/usr/bin/env bash
# Builds the benchmark driver from the checkout this script lives in and runs
# it with the given arguments (see README.md). Everything the build leaves
# behind goes under .bench_build/ in the checkout: the Go build cache, the
# toolchain's config/telemetry directory, and the binary.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C benchmark -o "$build/hsfbench" .
exec "$build/hsfbench" "$@"
