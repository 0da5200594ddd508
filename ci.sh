#!/bin/sh
# ci.sh — the pre-PR gate (see README.md "Install and run").
#
# Runs the whole verification ladder and stops at the first failure:
# formatting, vet, build, race-enabled tests, the determinism-contract
# lint (cmd/pmlint), a build of every cmd/* binary, a System256 pmfault
# campaign pinned against its golden degradation table, and the
# partitioned-engine equivalence gates. The pinned synthetic and
# application campaigns and their --metrics dumps run under go test, on
# both engines (TestCampaignGoldens and TestParallelEngineGoldens in
# golden_test.go), as do the pmtrace exports and analytics
# (TestTraceGoldens).
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

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== pmlint =="
go run ./cmd/pmlint ./...

echo "== pmlint shard-safety report =="
# The audit that gates the parallel simulation engine: every internal/
# package classified, byte-identical across runs, pinned as a golden.
# Regenerate deliberately with:
#   go run ./cmd/pmlint --report ./... > internal/analysis/testdata/pmlint_report.golden
reportout=$(mktemp)
go run ./cmd/pmlint --report ./... > "$reportout"
if ! cmp -s internal/analysis/testdata/pmlint_report.golden "$reportout"; then
    echo "pmlint --report diverged from internal/analysis/testdata/pmlint_report.golden:" >&2
    diff internal/analysis/testdata/pmlint_report.golden "$reportout" >&2 || true
    rm -f "$reportout"
    exit 1
fi
rm -f "$reportout"

echo "== analysis race tests =="
go test -race ./internal/analysis/...

echo "== build cmd binaries =="
bindir=$(mktemp -d)
trap 'rm -rf "$bindir"' EXIT
for d in cmd/*/; do
    go build -o "$bindir/$(basename "$d")" "./$d"
done

echo "== pmfault smoke campaigns =="
# A fixed seed; stdout must match the checked-in golden byte for byte
# (the campaign half of the determinism contract): an application
# campaign at System256 scale.
"$bindir/pmfault" --campaign heat-linkcut --topo system256 --seed 1 > "$bindir/pmfault.out"
if ! cmp -s testdata/pmfault_heat-linkcut_system256_seed1.golden "$bindir/pmfault.out"; then
    echo "pmfault System256 output diverged from testdata/pmfault_heat-linkcut_system256_seed1.golden:" >&2
    diff testdata/pmfault_heat-linkcut_system256_seed1.golden "$bindir/pmfault.out" >&2 || true
    exit 1
fi

echo "== node-partitioned single-workload equivalence =="
# The tentpole contract of the partitioned datapath: one System256
# application, its sends split across psim shards through cross-shard
# mailboxes, must reproduce the sequential golden byte for byte when the
# workload itself runs partitioned (--engine par --shards 4).
"$bindir/pmfault" --campaign heat-linkcut --topo system256 --seed 1 --engine par --shards 4 > "$bindir/pmfault.out"
if ! cmp -s testdata/pmfault_heat-linkcut_system256_seed1.golden "$bindir/pmfault.out"; then
    echo "pmfault --engine par --shards 4 diverged from testdata/pmfault_heat-linkcut_system256_seed1.golden:" >&2
    diff testdata/pmfault_heat-linkcut_system256_seed1.golden "$bindir/pmfault.out" >&2 || true
    exit 1
fi

echo "== multi-tenant traffic equivalence =="
# The open-loop traffic engine's contract: the System256 SLO sweep —
# four tenants of seeded arrival-process load under plane-A link and
# central-stage cuts — must reproduce the golden byte for byte on the
# sequential engine AND partitioned across 4 psim shards.
"$bindir/pmfault" --traffic --topo system256 --seed 1 > "$bindir/pmfault.out"
if ! cmp -s testdata/pmfault_traffic_system256_seed1.golden "$bindir/pmfault.out"; then
    echo "pmfault --traffic output diverged from testdata/pmfault_traffic_system256_seed1.golden:" >&2
    diff testdata/pmfault_traffic_system256_seed1.golden "$bindir/pmfault.out" >&2 || true
    exit 1
fi
"$bindir/pmfault" --traffic --topo system256 --seed 1 --engine par --shards 4 > "$bindir/pmfault.out"
if ! cmp -s testdata/pmfault_traffic_system256_seed1.golden "$bindir/pmfault.out"; then
    echo "pmfault --traffic --engine par --shards 4 diverged from testdata/pmfault_traffic_system256_seed1.golden:" >&2
    diff testdata/pmfault_traffic_system256_seed1.golden "$bindir/pmfault.out" >&2 || true
    exit 1
fi

echo "== pmtraffic metrics dump =="
# The per-tenant service registry, latency-decomposition histograms
# (netsim.send.wait.*) included: the dump must reproduce byte for byte
# on both engines.
"$bindir/pmtraffic" --mix default --seed 1 --metrics > "$bindir/pmtraffic.out"
if ! cmp -s testdata/pmtraffic_default_metrics_seed1.golden "$bindir/pmtraffic.out"; then
    echo "pmtraffic --metrics output diverged from testdata/pmtraffic_default_metrics_seed1.golden:" >&2
    diff testdata/pmtraffic_default_metrics_seed1.golden "$bindir/pmtraffic.out" >&2 || true
    exit 1
fi

echo "== pmstat windowed telemetry =="
# The tentpole contract of the telemetry layer: the System256 default
# mix under a deterministic mid-run link-cut scenario, rendered as
# per-window burn-rate and latency-decomposition tables, byte-identical
# on the sequential engine AND partitioned across 4 psim shards.
"$bindir/pmstat" --campaign link-cut --faults 8 --topo system256 --seed 1 > "$bindir/pmstat.out"
if ! cmp -s testdata/pmstat_default_system256_seed1.golden "$bindir/pmstat.out"; then
    echo "pmstat output diverged from testdata/pmstat_default_system256_seed1.golden:" >&2
    diff testdata/pmstat_default_system256_seed1.golden "$bindir/pmstat.out" >&2 || true
    exit 1
fi
"$bindir/pmstat" --campaign link-cut --faults 8 --topo system256 --seed 1 --engine par --shards 4 > "$bindir/pmstat.out"
if ! cmp -s testdata/pmstat_default_system256_seed1.golden "$bindir/pmstat.out"; then
    echo "pmstat --engine par --shards 4 diverged from testdata/pmstat_default_system256_seed1.golden:" >&2
    diff testdata/pmstat_default_system256_seed1.golden "$bindir/pmstat.out" >&2 || true
    exit 1
fi

echo "ci: all checks passed"
