#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the root of a checkout) and runs it with the given flags.
# Every file Go writes — build cache, module cache, temp files, its
# telemetry counters (under the user's configuration directory), the
# binary — stays inside the checkout, and nothing is fetched from the
# network. GOWORK=off: the repository's go.work does not list this module.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$PWD/.bench_build
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go build -C "$here" -o "$build/resinfer-bench" .
exec "$build/resinfer-bench" "$@"
