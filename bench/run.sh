#!/usr/bin/env bash
# Entry point of the repository benchmark (see BENCHMARK.json): builds the
# harness and hubserve from source into bench/.build/ and runs the harness
# from the current directory — the root of a checkout — with the given
# arguments (--workload NAME --seed N --seconds S --trace 0|1).
#
# Everything the Go toolchain writes (build cache, module cache, its
# telemetry counters under the user config directory) is kept under
# bench/.build/ too, so a run touches nothing outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build"

export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -C "$here" -o "$build/hubbench" .
go build -C "$here" -o "$build/hubserve" hublab/cmd/hubserve

exec "$build/hubbench" -hubserve "$build/hubserve" -tmp "$build/tmp" -out "$here/out" "$@"
