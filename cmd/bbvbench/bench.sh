#!/usr/bin/env bash
# Builds bbvbench from the sources of the checkout it is run in and runs
# it with the given flags. Run it from the repository root:
#
#   bash cmd/bbvbench/bench.sh -seed 1
#
# The build cache, the binary, spill files and the default trace file all
# stay under .bench_build/ in the repository root; nothing is fetched.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
# The passes run with the Go runtime's defaults, as a CLI user's would.
unset GOGC GOMEMLIMIT GOMAXPROCS GODEBUG
(cd "$root/cmd/bbvbench" && go build -buildvcs=false -o "$build/bbvbench" .) >&2
TMPDIR="$build/tmp" exec "$build/bbvbench" "$@"
