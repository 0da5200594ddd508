// Traffic fault campaigns: the open-loop multi-tenant traffic engine
// (internal/traffic) under a plane-A link-cut sweep. The synthetic
// campaigns measure the failover protocol on one generated stream and
// the app campaigns measure one program's makespan; this campaign asks
// the multi-tenant question — when links die under a machine serving
// several concurrent workloads, whose SLO breaks first, and at which
// percentile? Because the load is open-loop, arrivals keep coming at
// the offered rate while failover detection and retries eat link time,
// so the damage shows up in the delivered-latency tail (p99/p999) and
// the per-tenant violation counts long before mean throughput moves.
//
// Like the app campaigns, only pre-run LinkCut faults are injected —
// sound on the partitioned datapath because a cut wire's state is
// parameterized by time. Fault times are drawn from the first half of
// the horizon so post-fault arrivals exist to feel the degradation.
package fault

import (
	"fmt"
	"math/rand"
	"strings"

	"powermanna/internal/metrics"
	"powermanna/internal/sim"
	"powermanna/internal/stats"
	"powermanna/internal/topo"
	"powermanna/internal/traffic"
)

// trafficRates is the plane-A fault sweep every traffic campaign runs.
var trafficRates = []int{0, 4, 8, 16}

// TrafficResult is one traffic campaign's outcome: the per-rate traffic
// results plus the highest-rate fault schedule and plane counters.
type TrafficResult struct {
	// Mix is the tenant mix that ran.
	Mix traffic.Mix
	// Options are the resolved run parameters (Seed, Topology, Engine
	// and Shards apply; traffic shape comes from the mix).
	Options Options
	// Horizon is the offered-load window each rate ran.
	Horizon sim.Time
	// Rates is the fault-count ladder, Results its per-rate outcomes.
	Rates   []int
	Results []*traffic.Result
	// Schedule is the highest-rate row's fault schedule.
	Schedule []Event
	// PlaneA and PlaneB are the highest-rate row's degraded-mode
	// counters.
	PlaneA, PlaneB stats.CounterSet
}

// RunTraffic sweeps the mix over the plane-A link-cut ladder: for each
// fault count it assembles a fresh traffic engine, applies a seeded
// link-cut schedule up front, runs the open-loop load to the horizon
// and keeps the full per-tenant service report. Rows run sequentially —
// each row's engine supplies its own parallelism under Options.Engine
// == psim.Par — and the output is byte-identical across engines and
// aligned shard counts. A zero horizon means traffic.DefaultHorizon.
func RunTraffic(mix traffic.Mix, horizon sim.Time, opt Options) (*TrafficResult, error) {
	opt, err := opt.resolved()
	if err != nil {
		return nil, err
	}
	if horizon <= 0 {
		horizon = traffic.DefaultHorizon
	}
	res := &TrafficResult{Mix: mix, Options: opt, Horizon: horizon, Rates: trafficRates}
	last := len(trafficRates) - 1
	for i, rate := range trafficRates {
		eng, err := traffic.New(mix, traffic.Options{
			Seed:     opt.Seed,
			Topology: opt.Topology,
			Horizon:  horizon,
			Engine:   opt.Engine,
			Shards:   opt.Shards,
			Metrics:  observedRegistry(opt, i == last),
			Trace:    opt.Trace,
		})
		if err != nil {
			return nil, fmt.Errorf("fault: traffic campaign %q at rate %d: %w", mix.Name, rate, err)
		}
		events := trafficSchedule(opt.Topology, rate, horizon,
			rand.New(rand.NewSource(opt.Seed+faultSeedStride*int64(rate))))
		inj := NewInjector(eng.Network(), events)
		var lastAt sim.Time
		for _, e := range inj.Events() {
			lastAt = e.At
		}
		inj.ApplyUntil(lastAt)
		out, err := eng.Run()
		if err != nil {
			return nil, fmt.Errorf("fault: traffic campaign %q at rate %d: %w", mix.Name, rate, err)
		}
		res.Results = append(res.Results, out)
		if i == last {
			res.Schedule = inj.Events()
			res.PlaneA = out.PlaneA
			res.PlaneB = out.PlaneB
		}
	}
	return res, nil
}

// trafficSchedule draws the rate's plane-A fault schedule: node uplink
// cuts alternating with central-stage crossbar cuts where the topology
// has a central stage (System256). The central cuts are what make the
// sweep bite on the big machine — a severed node uplink degrades one
// node's sends, a severed central-stage wire degrades the plane-A
// routes of a whole cluster's cross-cluster traffic. Both kinds reduce
// to time-parameterized CutWire, so applying them before the run is
// sound on the partitioned datapath.
func trafficSchedule(t *topo.Topology, count int, horizon sim.Time, rng *rand.Rand) []Event {
	if count == 0 {
		return nil
	}
	var central []int
	planes := t.CrossbarPlanes()
	for _, xi := range t.CentralCrossbars() {
		if planes[xi] == topo.NetworkA {
			central = append(central, xi)
		}
	}
	span := int64(horizon / faultSpanDiv)
	if span < 1 {
		span = 1
	}
	events := make([]Event, 0, count)
	for i := 0; i < count; i++ {
		at := sim.Time(rng.Int63n(span))
		node := rng.Intn(t.Nodes())
		e := Event{Kind: LinkCut, At: at, Plane: topo.NetworkA, Node: node}
		if i%2 == 1 && len(central) > 0 {
			e = Event{Kind: CentralCut, At: at, Plane: topo.NetworkA}
			e.Xbar = central[rng.Intn(len(central))]
			wired := t.WiredPorts(e.Xbar)
			e.Out = wired[rng.Intn(len(wired))]
		}
		events = append(events, e)
	}
	return events
}

// observedRegistry hands the caller's registry only to the observed
// (highest-rate) row, mirroring the other campaigns' --metrics
// semantics; every other row folds into a private registry.
func observedRegistry(opt Options, observed bool) *metrics.Registry {
	if observed {
		return opt.Metrics
	}
	return nil
}

// Table renders the SLO degradation ladder: one row per (fault count,
// tenant), the delivered-latency percentiles next to the declared SLO
// and the exact violation count.
func (r *TrafficResult) Table() *stats.Table {
	t := &stats.Table{
		Title:   fmt.Sprintf("slo degradation — %s", r.Mix.Name),
		Columns: []string{"faults", "tenant", "offered", "delivered", "failed", "p50-us", "p99-us", "p999-us", "slo", "ok", "viol"},
	}
	for i, rate := range r.Rates {
		for _, ts := range r.Results[i].Tenants {
			ok := "yes"
			if !ts.Met() {
				ok = "NO"
			}
			t.AddRow(
				fmt.Sprintf("%d", rate),
				ts.Name,
				fmt.Sprintf("%d", ts.Offered),
				fmt.Sprintf("%d", ts.Delivered),
				fmt.Sprintf("%d", ts.Failed),
				fmt.Sprintf("%.3f", ts.P50.Micros()),
				fmt.Sprintf("%.3f", ts.P99.Micros()),
				fmt.Sprintf("%.3f", ts.P999.Micros()),
				ts.SLO.String(),
				ok,
				fmt.Sprintf("%d", ts.Violations),
			)
		}
	}
	return t
}

// Render produces the campaign's full deterministic text block: header,
// tenant mix, the SLO degradation ladder, the highest-rate fault
// schedule and its plane counters.
func (r *TrafficResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### traffic campaign %s — %s\n", r.Mix.Name, r.Mix.Description)
	fmt.Fprintf(&b, "topology %s, seed %d, horizon %dus, %d tenants, open-loop over partitioned datapath\n\n",
		r.Options.Topology.Name(), r.Options.Seed, int64(r.Horizon/sim.Microsecond), len(r.Mix.Tenants))
	b.WriteString(r.Results[0].MixTable().Render())
	b.WriteByte('\n')
	b.WriteString(r.Table().Render())
	fmt.Fprintf(&b, "\nfault schedule at %d faults:\n", r.Rates[len(r.Rates)-1])
	if len(r.Schedule) == 0 {
		b.WriteString("  (none)\n")
	}
	for _, e := range r.Schedule {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	b.WriteByte('\n')
	b.WriteString(r.PlaneA.Render())
	b.WriteString(r.PlaneB.Render())
	return b.String()
}
