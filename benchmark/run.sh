#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes (Go build cache included) stays under
# benchmark/.build, so a run reads and writes only inside its checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
build="$PWD/.build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/modcache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
go build -o "$build/bench" .
exec "$build/bench" "$@"
