#!/usr/bin/env bash
# Builds the served-query benchmark from source and runs it, passing every
# argument through:
#
#   bash bench/run.sh --workload fb-maxmin-lone --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# trace files all go to .bench_build/, so nothing is written outside the
# checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/serve || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root (needs go.mod, internal/ and bench/)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=readonly

(cd bench && go build -o "$out/bench" .)
exec "$out/bench" -traceout "$out/traces" "$@"
