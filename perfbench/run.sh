#!/usr/bin/env bash
# Builds sgxbench, sgxd and the benchmark program from the checkout it is run in, then
# runs one workload. Run from the root of an sgxbounds checkout:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 30 --trace 0
#
# Every build product, Go cache and run directory stays under .bench_build
# in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/sgxd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of an sgxbounds checkout" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/config"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOTELEMETRY=off GOWORK=off GOPROXY=off

go build -o "$build/bin/sgxbench" ./cmd/sgxbench >&2
go build -o "$build/bin/sgxd" ./cmd/sgxd >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -root "$root" -bin "$build/bin" "$@"
