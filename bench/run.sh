#!/usr/bin/env bash
# Builds bench/pmperf from source and runs it with the given arguments.
# Run it from the repository root; every build product and cache stays
# under .bench_build/ there:
#
#   bash bench/run.sh --workload heat-spmd --seed 1 --seconds 18 --trace 0
#   bash bench/run.sh --seed 1 --ledger bench/ledger/BENCH_new.json
#   bash bench/run.sh compare bench/ledger/A.json bench/ledger/B.json
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
# The go command keeps its settings and telemetry under the config dir.
XDG_CONFIG_HOME="$out/config" go -C bench build -o "$out/pmperf" ./pmperf
exec "$out/pmperf" "$@"
