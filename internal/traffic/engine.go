package traffic

import (
	"fmt"

	"powermanna/internal/metrics"
	"powermanna/internal/netsim"
	"powermanna/internal/psim"
	"powermanna/internal/sim"
	"powermanna/internal/telemetry"
	"powermanna/internal/topo"
	"powermanna/internal/trace"
)

// DefaultHorizon is the default offered-load window: long enough for
// every DefaultMix tenant to cycle through several bursts, short enough
// for a golden-pinned CI run on System256.
const DefaultHorizon = 800 * sim.Microsecond

// Per-tenant accounting counter prefixes; the tenant name is the
// suffix. Offered counts messages the arrival processes injected;
// delivered/failed partition the outcomes; slo.violations counts failed
// messages plus delivered ones whose latency exceeded the tenant's
// bound.
const (
	MetricOfferedPrefix        = "traffic.offered."
	MetricOfferedBytesPrefix   = "traffic.offered.bytes."
	MetricDeliveredPrefix      = "traffic.delivered."
	MetricDeliveredBytesPrefix = "traffic.delivered.bytes."
	MetricFailedPrefix         = "traffic.failed."
	MetricViolationsPrefix     = "traffic.slo.violations."
)

// Options configures one traffic run. The zero value runs the mix on
// Cluster8, seed 1, the default horizon, sequentially.
type Options struct {
	// Seed drives every arrival process; 0 means 1.
	Seed int64
	// Topology is the machine; nil means topo.Cluster8().
	Topology *topo.Topology
	// Horizon is the offered-load window: arrivals stop at the horizon
	// and the run drains in-flight traffic to completion. 0 means
	// DefaultHorizon; a negative horizon is an error.
	Horizon sim.Time
	// Engine selects sequential (one shard) or parallel (Shards-wide)
	// execution; the output is byte-identical either way.
	Engine psim.Kind
	// Shards is the shard count under the parallel engine. Zero means 1;
	// a negative count is an error.
	Shards int
	// Metrics optionally supplies the registry the run folds into; nil
	// means a private registry (the Result carries it either way).
	Metrics *metrics.Registry
	// Trace optionally records the send-path attempt/outcome stream.
	Trace *trace.Recorder
	// Telemetry enables the windowed time-series layer: per-tenant
	// offered/outcome/violation series, latency-decomposition series and
	// the SLO burn-rate views, folded into Result.Telemetry.
	Telemetry bool
	// Window is the telemetry grid width; 0 auto-sizes to
	// telemetry.AutoWindow(Horizon), a negative width is an error.
	// Otherwise ignored unless Telemetry is set.
	Window sim.Time
}

// Engine is one assembled traffic run: a mix of tenants, their streams
// scheduled on a partitioned network, ready for fault injection and a
// single Run.
type Engine struct {
	mix     Mix
	opt     Options
	pn      *netsim.PartNetwork
	reg     *metrics.Registry
	core    engineCore
	streams []*stream
	// tels holds one sampler per shard (nil when telemetry is off);
	// streams observe only their own shard's sampler and Run folds them,
	// the same single-writer discipline as the per-shard registries.
	tels []*telemetry.Sampler
	ran  bool
}

// New validates the mix, assembles the partitioned network and seeds
// one stream per (tenant, node), scheduling every first arrival that
// falls inside the horizon. Inject faults through Network() before Run.
func New(mix Mix, opt Options) (*Engine, error) {
	if err := mix.Validate(); err != nil {
		return nil, err
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.Topology == nil {
		opt.Topology = topo.Cluster8()
	}
	switch {
	case opt.Shards < 0:
		return nil, fmt.Errorf("traffic: shard count %d is negative", opt.Shards)
	case opt.Horizon < 0:
		return nil, fmt.Errorf("traffic: horizon %v is negative", opt.Horizon)
	case opt.Window < 0:
		return nil, fmt.Errorf("traffic: telemetry window %v is negative", opt.Window)
	}
	if opt.Horizon == 0 {
		opt.Horizon = DefaultHorizon
	}
	shards := 1
	if opt.Engine == psim.Par && opt.Shards > 0 {
		shards = opt.Shards
	}
	opt.Shards = shards
	pn, err := netsim.NewPartitioned(opt.Topology, shards, netsim.DefaultFailover())
	if err != nil {
		return nil, fmt.Errorf("traffic: %w", err)
	}
	reg := opt.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	pn.SetMetrics(reg)
	names := make([]string, len(mix.Tenants))
	for i, tn := range mix.Tenants {
		names[i] = tn.Name
	}
	pn.SetTenants(names)
	if opt.Trace != nil {
		pn.SetRecorder(opt.Trace)
	}

	e := &Engine{mix: mix, opt: opt, pn: pn, reg: reg}
	e.core = engineCore{pn: pn, horizon: opt.Horizon}

	// One counter set per (shard, tenant): streams write only their own
	// shard's set; the fold sums them. The telemetry series follow the
	// same layout — one sampler per shard, one instrument set per
	// (shard, tenant) — with nil samplers handing out no-op instruments
	// when telemetry is off.
	if opt.Telemetry {
		if opt.Window == 0 {
			opt.Window = telemetry.AutoWindow(opt.Horizon)
		}
		e.tels = make([]*telemetry.Sampler, shards)
		for si := range e.tels {
			e.tels[si] = telemetry.NewSampler(opt.Horizon, opt.Window)
		}
		e.opt = opt
	}
	counters := make([][]tenantCounters, shards)
	series := make([][]tenantSeries, shards)
	for si := range counters {
		sreg := pn.ShardRegistry(si)
		var tel *telemetry.Sampler
		if e.tels != nil {
			tel = e.tels[si]
		}
		row := make([]tenantCounters, len(mix.Tenants))
		srow := make([]tenantSeries, len(mix.Tenants))
		for ti, tn := range mix.Tenants {
			row[ti] = tenantCounters{
				offered:        sreg.Counter(MetricOfferedPrefix + tn.Name),
				offeredBytes:   sreg.Counter(MetricOfferedBytesPrefix + tn.Name),
				delivered:      sreg.Counter(MetricDeliveredPrefix + tn.Name),
				deliveredBytes: sreg.Counter(MetricDeliveredBytesPrefix + tn.Name),
				failed:         sreg.Counter(MetricFailedPrefix + tn.Name),
				violations:     sreg.Counter(MetricViolationsPrefix + tn.Name),
			}
			srow[ti] = resolveTenantSeries(tel, tn.Name)
		}
		counters[si] = row
		series[si] = srow
	}

	// Tenant-major, node-minor creation fixes the same-time event order
	// on every shard layout: two streams on the same node keep their
	// relative order at every shard count, and streams on different
	// nodes never share mutable state.
	nodes := opt.Topology.Nodes()
	for ti, tn := range mix.Tenants {
		for node := 0; node < nodes; node++ {
			si := pn.ShardOf(node)
			st := newStream(&e.core, tn, ti, node, nodes, opt.Seed, &counters[si][ti], series[si][ti])
			e.streams = append(e.streams, st)
			if st.at < opt.Horizon {
				st.sh.At(st.at, st.fireFn)
			}
		}
	}
	return e, nil
}

// Network exposes the underlying network for fault injection (link
// cuts, corruption windows) before Run — not for sending.
func (e *Engine) Network() *netsim.Network { return e.pn.Network() }

// PartNetwork exposes the partitioned datapath — plane counters and
// shard registries, post-Run.
func (e *Engine) PartNetwork() *netsim.PartNetwork { return e.pn }

// Run drives every arrival process to the horizon, drains in-flight
// traffic, folds the per-shard metrics and reads the per-tenant service
// report off the registry. It may be called once.
func (e *Engine) Run() (*Result, error) {
	if e.ran {
		return nil, fmt.Errorf("traffic: engine already ran")
	}
	e.ran = true
	e.pn.Run()

	res := &Result{
		Mix:      e.mix,
		Topology: e.opt.Topology,
		Seed:     e.opt.Seed,
		Horizon:  e.opt.Horizon,
		Engine:   e.opt.Engine,
		Shards:   e.opt.Shards,
		Registry: e.reg,
		PlaneA:   e.pn.PlaneCounterSet(topo.NetworkA),
		PlaneB:   e.pn.PlaneCounterSet(topo.NetworkB),
	}
	if e.tels != nil {
		// Fold the per-shard samplers cell-wise; every fold is commutative,
		// so the result is independent of shard count and merge order.
		tel := e.tels[0]
		for _, src := range e.tels[1:] {
			tel.MergeFrom(src)
		}
		res.Telemetry = tel
		res.Window = e.opt.Window
	}
	for _, tn := range e.mix.Tenants {
		lat := e.reg.Histogram(netsim.MetricSendLatencyTenantPrefix+tn.Name, nil)
		res.Tenants = append(res.Tenants, TenantStats{
			Name:           tn.Name,
			SLO:            tn.SLO,
			Offered:        e.reg.Counter(MetricOfferedPrefix + tn.Name).Value(),
			OfferedBytes:   e.reg.Counter(MetricOfferedBytesPrefix + tn.Name).Value(),
			Delivered:      e.reg.Counter(MetricDeliveredPrefix + tn.Name).Value(),
			DeliveredBytes: e.reg.Counter(MetricDeliveredBytesPrefix + tn.Name).Value(),
			Failed:         e.reg.Counter(MetricFailedPrefix + tn.Name).Value(),
			Violations:     e.reg.Counter(MetricViolationsPrefix + tn.Name).Value(),
			P50:            lat.QuantileTime(0.5),
			P99:            lat.QuantileTime(0.99),
			P999:           lat.QuantileTime(0.999),
		})
	}
	return res, nil
}
