#!/usr/bin/env bash
# Builds the benchmark and the maccd replicas it launches from the source in
# this checkout, then runs the benchmark with the given arguments. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload corpus-cold --seed 1 --seconds 20 --trace 0
#
# Binaries, the Go build cache, the go command's own config and telemetry
# files, and the replicas' scratch directories all go to .bench_build/ in
# the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(
	cd perfbench
	go build -o "$out/bin/perfbench" .
	go build -o "$out/bin/maccd" macc/cmd/maccd
)
exec "$out/bin/perfbench" --maccd "$out/bin/maccd" --work "$out" "$@"
