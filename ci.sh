#!/bin/sh
# ci.sh — the pre-PR gate (see README.md "Install and run").
#
# Runs the whole verification ladder and stops at the first failure:
# formatting, vet (this module and the bench module), build, a check
# that the node model's cache probes inline, race-enabled tests, a
# race stress of psim's barrier (twenty passes at -cpu 1,2,4), ten
# seconds of event-queue fuzzing (internal/sim FuzzQueue), one
# iteration of each paper-figure facade benchmark (the root package's
# BenchmarkFig*, BenchmarkAblation* and BenchmarkKernel*) and of each
# node-model, route-search, event-queue, network (internal/netsim),
# EARTH-runtime (internal/earth) and message-layer (internal/mpl,
# internal/heat) benchmark (so the benchmarks keep running), the
# determinism-contract lint
# (cmd/pmlint) and a build of every cmd/* binary. Every golden gate
# runs under go test: the CLI goldens in golden_test.go
# (TestCampaignGoldens, TestParallelEngineGoldens, TestDatapathGoldens,
# TestTraceGoldens, TestNodeToolGoldens), the paper figures in
# internal/experiments (TestNodeFiguresGolden) and the pmlint --report
# shard-safety audit in internal/analysis (TestReportMatchesGolden).
# A clean exit means the tree is safe to ship.
set -eu

cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go vet (bench module) =="
# bench/pmperf builds against this tree through `replace powermanna => ../`,
# so an API change that breaks the benchmark harness fails here.
(cd bench && go vet ./...)

echo "== go build =="
go build ./...

echo "== inlined cache probes =="
# Proc.Access probes each cache level with Cache.ReadHit and relies on
# every probe inlining: the compiler must report one inlined call per
# call site in the node package's non-test code.
sites=$(grep -hv '^[[:space:]]*//' $(ls internal/node/*.go | grep -v '_test\.go$') | grep -c '\.ReadHit(' || true)
inlined=$(go build -gcflags=-m ./internal/node 2>&1 | grep -c 'inlining call to cache\.(\*Cache)\.ReadHit$' || true)
if [ "$inlined" -lt "$sites" ]; then
    echo "Cache.ReadHit inlined at $inlined of $sites call sites in internal/node" >&2
    exit 1
fi

echo "== go test -race =="
go test -race ./...

echo "== psim barrier race stress =="
# Twenty race-enabled passes of the barrier's contract tests at one, two
# and four processors: panics, worker joins, round counts and
# serial/parallel equivalence under varied interleavings (~1 min).
go test -race -count=20 -cpu 1,2,4 -run 'TestParallel|TestRunRows' ./internal/psim

echo "== event-queue fuzz =="
# FuzzQueue checks random push/peek/pop strings against a sorted
# reference; ten seconds covers far, equal-time and near-MaxTime pushes.
go test -run '^$' -fuzz '^FuzzQueue$' -fuzztime 10s ./internal/sim

echo "== facade, node-model, route, event-queue, network, runtime and message-layer benchmarks =="
go test -run '^$' -bench . -benchtime 1x . ./internal/cache ./internal/node ./internal/matmult ./internal/topo ./internal/sim ./internal/psim ./internal/netsim ./internal/earth ./internal/mpl ./internal/heat

echo "== pmlint =="
go run ./cmd/pmlint ./...

echo "== build cmd binaries =="
bindir=$(mktemp -d)
trap 'rm -rf "$bindir"' EXIT
for d in cmd/*/; do
    go build -o "$bindir/$(basename "$d")" "./$d"
done

echo "ci: all checks passed"
