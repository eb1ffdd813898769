#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#   bash adcbench/run.sh --workload mine-enum --seed 1 --seconds 20 --trace 0
# Run from the repository root. The binary, the Go build cache, Go's
# config directory and the serve workload's data directory all live
# under .bench_build/adcbench, so a run writes nothing outside the
# checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/adcbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
(cd "$root/adcbench" && go build -o "$out/adcbench" .)
exec "$out/adcbench" "$@"
