#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments (see perfbench/README.md). Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload query --seed 1 --seconds 15 --trace 0
#
# Every build and run product stays under .bench_build/ in the current
# directory: the Go build cache, the binary, the warehouses the workloads
# create, and the span files of traced runs.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no go.mod in $root; run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
