#!/usr/bin/env bash
# Builds the benchmark driver and the vbmcd daemon from the source tree
# this script sits in, then runs the driver with the given arguments:
#
#	bash bench/run.sh --workload bugs --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# inside the checkout: the Go build cache and binaries go to
# .bench_build/, results and span trees to bench/out/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS=-buildvcs=false
export XDG_CONFIG_HOME="$build/config" # the go command's telemetry counters
mkdir -p "$GOTMPDIR" "$build/bin" "$build/work"

(cd "$root/bench" &&
	go build -o "$build/bin/vbmcbench" ./cmd/vbmcbench &&
	go build -o "$build/bin/vbmcd" ravbmc/cmd/vbmcd)

exec "$build/bin/vbmcbench" -vbmcd "$build/bin/vbmcd" -work "$build/work" -out "$root/bench/out" "$@"
