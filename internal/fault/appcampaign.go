// Application fault campaigns: real workloads over the message-passing
// layer while the interconnect degrades underneath them.
//
// The synthetic campaigns (campaign.go) measure the failover protocol on
// a generated message stream; these campaigns answer the system-level
// question the paper's duplicated network poses: what happens to an
// actual application — the heat solver's halo exchanges, a collective's
// butterfly — when plane-A uplinks die mid-run? The message-passing
// workloads run SPMD-style over the node-partitioned datapath
// (mpl.PWorld), whose split-phase sends cross psim shards through
// mailboxes; severed plane-A wires push traffic onto plane B. EARTH
// workloads run on the single-heap synchronous path and additionally
// contend with the background operating-system stream (netsim's OS
// stream, per Section 4's software separation; partitioned rows carry
// none — see AppCampaign.PartWorkload). The table reports makespan
// inflation instead of per-message latency, because for an application
// that is the number that matters.
//
// App campaigns inject only LinkCut faults, applied to the network up
// front: a cut wire's state is parameterized by time (dead from At
// onward), so applying it early changes nothing — unlike XbarStuck,
// which acquires resource timelines and must be applied in simulated
// order. That keeps the injection sound even though the workload's send
// times are not known in advance. Fault times are drawn from the first
// half of the fault-free makespan, so post-fault traffic exists to feel
// the degradation; the rate-0 row therefore always runs first.
package fault

import (
	"fmt"
	"math/rand"
	"strings"

	"powermanna/internal/earth"
	"powermanna/internal/heat"
	"powermanna/internal/metrics"
	"powermanna/internal/mpl"
	"powermanna/internal/netsim"
	"powermanna/internal/psim"
	"powermanna/internal/sim"
	"powermanna/internal/stats"
	"powermanna/internal/topo"
)

// Workload shapes for the app campaigns: small enough to sweep quickly,
// large enough that every rank sends on every step.
const (
	// heatCellsPerRank sizes the heat solver's domain per rank.
	heatCellsPerRank = 24
	// heatSteps is the heat solver's step count (crosses one residual
	// reduction at the default ReduceEvery of 50).
	heatSteps = 60
	// allreduceRounds is the collective campaign's round count.
	allreduceRounds = 30
	// fibN is the EARTH campaign's Fibonacci argument: deep enough that
	// the fiber tree spreads across the cluster.
	fibN = 16
)

// AppCampaign is a named application-level fault experiment: a workload
// over the message-passing layer and a sweep of plane-A link-cut counts.
type AppCampaign struct {
	// Name is the CLI key (pmfault --campaign <name>).
	Name string
	// Description says what the campaign demonstrates.
	Description string
	// Rates is the fault-count sweep; the leading 0 row sizes the fault
	// window and the inflation baseline.
	Rates []int
	// PartWorkload runs a message-passing application over a fresh
	// mpl.PWorld and returns its makespan: rank coroutines, split-phase
	// sends through psim mailboxes, and — under Options.Shards > 1 with
	// the parallel engine — real single-workload parallelism. Output is
	// byte-identical at every aligned shard count. It must also verify
	// the computation's result — a fault campaign that silently returns
	// wrong numbers proves nothing. These rows carry no background OS
	// stream (the lazy injector needs a global send order the
	// partitioned path does not have), so their os-msgs column reads 0.
	PartWorkload func(w *mpl.PWorld) (sim.Time, error)
	// EarthWorkload runs an EARTH-runtime program instead, contending
	// with the plane-B OS stream; exactly one of PartWorkload and
	// EarthWorkload is set. It must verify its result too, and surface
	// a lost token as an error (System.Err), never a panic.
	EarthWorkload func(s *earth.System) (sim.Time, error)
}

// AppCampaigns lists the application campaigns in CLI order.
func AppCampaigns() []AppCampaign {
	return []AppCampaign{
		{
			Name:         "heat-linkcut",
			Description:  "run the 1D heat solver over the partitioned datapath while plane-A uplinks die; halo traffic fails over to plane B",
			Rates:        []int{0, 1, 2, 4},
			PartWorkload: heatWorkload,
		},
		{
			Name:         "allreduce-linkcut",
			Description:  "sweep AllReduce rounds over the partitioned datapath while plane-A uplinks die; the butterfly's edges fail over to plane B",
			Rates:        []int{0, 1, 2, 4},
			PartWorkload: allreduceWorkload,
		},
		{
			Name:          "fib-linkcut",
			Description:   "run the EARTH fib fiber tree while plane-A uplinks die; control tokens fail over, and a token lost on both planes degrades to an error",
			Rates:         []int{0, 1, 2, 4},
			EarthWorkload: fibWorkload,
		},
	}
}

// AppCampaignByName finds an application campaign by its CLI key.
func AppCampaignByName(name string) (AppCampaign, bool) {
	for _, c := range AppCampaigns() {
		if c.Name == name {
			return c, true
		}
	}
	return AppCampaign{}, false
}

// heatWorkload solves the 1D heat equation SPMD-style over the
// partitioned world and checks the field bit-identically against the
// serial reference — delivery over a degraded network must not change
// the arithmetic.
func heatWorkload(pw *mpl.PWorld) (sim.Time, error) {
	cfg := heat.DefaultConfig(heatCellsPerRank*pw.Ranks(), heatSteps)
	res, err := heat.RunPart(pw, cfg)
	if err != nil {
		return 0, err
	}
	want, err := heat.RunSerial(cfg)
	if err != nil {
		return 0, err
	}
	for i := range want {
		if res.Field[i] != want[i] {
			return 0, fmt.Errorf("fault: heat field diverges from serial at cell %d", i)
		}
	}
	return res.Makespan, nil
}

// allreduceWorkload sweeps AllReduce rounds with per-rank contributions
// whose global sums are known in closed form, verifying each round on
// every rank.
func allreduceWorkload(pw *mpl.PWorld) (sim.Time, error) {
	p := pw.Ranks()
	wantA := float64(p) * float64(p+1) / 2
	err := pw.Run(func(r *mpl.PRank) error {
		for round := 0; round < allreduceRounds; round++ {
			contrib := []float64{float64(r.Rank() + 1), float64(round) * float64(r.Rank()+1)}
			got, err := r.AllReduce(contrib, round)
			if err != nil {
				return err
			}
			wantB := float64(round) * wantA
			if len(got) != 2 || got[0] != wantA || got[1] != wantB {
				return fmt.Errorf("fault: allreduce round %d = %v, want [%v %v]", round, got, wantA, wantB)
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return pw.MaxTime(), nil
}

// fibWorkload runs the EARTH Fibonacci fiber tree and verifies the
// result against the closed-form reference. A token lost on both planes
// surfaces as RunFib's error — the graceful-degradation path that lets
// this workload run under link-cut sweeps at all.
func fibWorkload(s *earth.System) (sim.Time, error) {
	v, makespan, err := earth.RunFib(s, fibN)
	if err != nil {
		return 0, err
	}
	if want := earth.FibReference(fibN); v != want {
		return 0, fmt.Errorf("fault: fib(%d) = %d, want %d", fibN, v, want)
	}
	return makespan, nil
}

// AppRow is one line of the application degradation table.
type AppRow struct {
	// Faults is the injected plane-A link-cut count.
	Faults int
	// Makespan is the workload's completion time under those faults.
	Makespan sim.Time
	// Inflation is Makespan over the fault-free row's makespan.
	Inflation float64
	// FailedOver counts plane-A attempts abandoned to plane B.
	FailedOver int64
	// Skipped counts plane attempts short-circuited by the senders'
	// plane-down caches — the cached-fast-path replacing full detection
	// windows after the first failure.
	Skipped int64
	// OSMessages counts background OS-stream messages the application's
	// failover traffic contended with on plane B.
	OSMessages int64
}

// AppResult is one application campaign's full outcome.
type AppResult struct {
	// Campaign is the spec that ran.
	Campaign AppCampaign
	// Options are the resolved run parameters (only Seed and Topology
	// apply to app campaigns; traffic shape comes from the workload).
	Options Options
	// Rows is the degradation table, one row per Rates entry.
	Rows []AppRow
	// Schedule is the highest-rate row's fault schedule, sorted by time.
	Schedule []Event
	// PlaneA and PlaneB are the highest-rate row's degraded-mode
	// counters.
	PlaneA, PlaneB stats.CounterSet
}

// appOutcome is one application row's full result, written by the
// row's event stream and read back only after its engine has drained.
type appOutcome struct {
	row      AppRow
	err      error
	schedule []Event
	planeA   stats.CounterSet
	planeB   stats.CounterSet
}

// runAppRate schedules one application row onto an event engine: a
// single setup event builds the workload's runtime over a fresh
// fault-aware network, applies the seeded link-cut schedule up front,
// runs the workload and closes the accounting. EARTH workloads take
// the row's engine as their own event queue (earth.NewWithEngine), so
// under the parallel sweep the runtime's events live on the row's
// shard heap. Message-passing workloads own a nested psim engine (the
// PWorld's shards) and use the row's engine only as its execution
// slot, so their rows must run on a plain scheduler — RunApp keeps
// them off the parallel-row path and lets the PWorld supply the
// parallelism.
func runAppRate(c AppCampaign, opt Options, rate int, observed bool, baseline sim.Time, eng sim.Engine, out *appOutcome) {
	eng.At(0, func() {
		var runW func() (sim.Time, error)
		var net *netsim.Network
		var setMetrics func(*metrics.Registry)
		var setRecorder func()
		var plane func(p int) netsim.PlaneCounters
		var counters func(p int) stats.CounterSet
		if c.EarthWorkload != nil {
			s := earth.NewWithEngine(opt.Topology, earth.DefaultParams(), eng)
			net = s.Network()
			net.AttachOSStream(netsim.DefaultOSStream())
			runW = func() (sim.Time, error) { return c.EarthWorkload(s) }
			// EARTH workloads attach through the runtime so the earth.*
			// instruments come along with the network's.
			setMetrics = func(m *metrics.Registry) { s.SetMetrics(m) }
			setRecorder = func() { net.SetRecorder(opt.Trace) }
			plane, counters = net.Plane, net.PlaneCounterSet
		} else {
			shards := 1
			if opt.Engine == psim.Par {
				shards = opt.Shards
			}
			pw, err := mpl.NewPWorld(opt.Topology, shards)
			if err != nil {
				out.err = fmt.Errorf("fault: app campaign %q at rate %d: %w", c.Name, rate, err)
				return
			}
			// The injector cuts wires on the underlying network; the
			// partitioned datapath reads the same wire state, so LinkCut
			// schedules apply unchanged. Delivery accounting, however,
			// lives in the PartNetwork's folded per-shard counters.
			net = pw.Network()
			pn := pw.PartNetwork()
			runW = func() (sim.Time, error) { return c.PartWorkload(pw) }
			setMetrics = func(m *metrics.Registry) { pw.SetMetrics(m) }
			setRecorder = func() { pw.SetRecorder(opt.Trace) }
			plane, counters = pn.Plane, pn.PlaneCounterSet
		}
		if observed {
			if opt.Trace != nil {
				setRecorder()
			}
			if opt.Metrics != nil {
				setMetrics(opt.Metrics)
			}
		}
		var events []Event
		if rate > 0 {
			rng := rand.New(rand.NewSource(opt.Seed + faultSeedStride*int64(rate)))
			span := int64(baseline / faultSpanDiv)
			if span < 1 {
				span = 1
			}
			for i := 0; i < rate; i++ {
				events = append(events, Event{
					Kind:  LinkCut,
					At:    sim.Time(rng.Int63n(span)),
					Plane: topo.NetworkA,
					Node:  rng.Intn(opt.Topology.Nodes()),
				})
			}
		}
		inj := NewInjector(net, events)
		// Apply the whole schedule before the run: sound for LinkCut
		// (see the package comment), and the only option when the
		// workload, not the campaign, decides the send times.
		var last sim.Time
		for _, e := range inj.Events() {
			last = e.At
		}
		inj.ApplyUntil(last)
		makespan, err := runW()
		if err != nil {
			out.err = fmt.Errorf("fault: app campaign %q at rate %d: %w", c.Name, rate, err)
			return
		}
		pa, pb := plane(topo.NetworkA), plane(topo.NetworkB)
		out.row = AppRow{
			Faults:     rate,
			Makespan:   makespan,
			Inflation:  1,
			FailedOver: pa.FailedOver + pb.FailedOver,
			Skipped:    pa.SkippedDown + pb.SkippedDown,
			OSMessages: pb.OSMessages,
		}
		if rate > 0 && baseline > 0 {
			out.row.Inflation = float64(makespan) / float64(baseline)
		}
		out.schedule = inj.Events()
		out.planeA = counters(topo.NetworkA)
		out.planeB = counters(topo.NetworkB)
		if observed && opt.Metrics != nil {
			publishDispatchOccupancy(opt.Metrics, pa.Delivered+pb.Delivered)
		}
	})
}

// RunApp executes the application campaign: for each fault count it
// builds a fresh world, applies a seeded plane-A link-cut schedule up
// front, runs the workload, and collects a makespan row. The 0-rate
// row always runs first and alone — its makespan sizes the fault
// window every later row draws from; psim.RunRows then runs the
// remaining rows, under Options.Engine == psim.Par concurrently, one
// psim shard each — except for partitioned workloads, whose rows
// always run sequentially because each row's PWorld owns its own psim
// engine (Options.Shards wide) and supplies the parallelism itself.
// Deterministic either way: same spec and options, byte-identical
// AppResult.
func RunApp(c AppCampaign, opt Options) (*AppResult, error) {
	opt, err := opt.resolved()
	if err != nil {
		return nil, err
	}
	if len(c.Rates) == 0 || c.Rates[0] != 0 {
		return nil, fmt.Errorf("fault: app campaign %q must lead with a 0 rate (it sizes the fault window)", c.Name)
	}
	if (c.PartWorkload == nil) == (c.EarthWorkload == nil) {
		return nil, fmt.Errorf("fault: app campaign %q must set exactly one of PartWorkload and EarthWorkload", c.Name)
	}
	res := &AppResult{Campaign: c, Options: opt}
	outs := make([]appOutcome, len(c.Rates))

	psim.RunRows(psim.Seq, 1, func(_ int, eng sim.Engine) {
		runAppRate(c, opt, 0, len(c.Rates) == 1, 0, eng, &outs[0])
	})
	if outs[0].err != nil {
		return nil, outs[0].err
	}
	baseline := outs[0].row.Makespan

	rest := c.Rates[1:]
	kind := psim.Seq
	if c.EarthWorkload != nil {
		kind = opt.Engine
	}
	psim.RunRows(kind, len(rest), func(i int, eng sim.Engine) {
		runAppRate(c, opt, rest[i], i == len(rest)-1, baseline, eng, &outs[i+1])
	})
	for i := range outs {
		if outs[i].err != nil {
			return nil, outs[i].err
		}
		res.Rows = append(res.Rows, outs[i].row)
	}
	// The sweep's last (highest-rate) run provides the detailed view.
	last := &outs[len(outs)-1]
	res.Schedule = last.schedule
	res.PlaneA = last.planeA
	res.PlaneB = last.planeB
	return res, nil
}

// Table renders the application degradation table.
func (r *AppResult) Table() *stats.Table {
	t := &stats.Table{
		Title:   fmt.Sprintf("degradation — %s", r.Campaign.Name),
		Columns: []string{"faults", "makespan-us", "inflation", "failed-over", "skipped", "os-msgs"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprintf("%d", row.Faults),
			fmt.Sprintf("%.3f", row.Makespan.Seconds()*1e6),
			fmt.Sprintf("%.3f", row.Inflation),
			fmt.Sprintf("%d", row.FailedOver),
			fmt.Sprintf("%d", row.Skipped),
			fmt.Sprintf("%d", row.OSMessages),
		)
	}
	return t
}

// Render produces the campaign's full deterministic text block: header,
// makespan table, the highest-rate fault schedule, and per-plane
// degraded-mode counters.
func (r *AppResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### campaign %s — %s\n", r.Campaign.Name, r.Campaign.Description)
	workload := "application workload with plane-B OS stream"
	if r.Campaign.PartWorkload != nil {
		workload = "partitioned application workload, no OS stream"
	}
	fmt.Fprintf(&b, "topology %s, seed %d, %s\n\n",
		r.Options.Topology.Name(), r.Options.Seed, workload)
	b.WriteString(r.Table().Render())
	fmt.Fprintf(&b, "\nfault schedule at %d faults:\n", r.Rows[len(r.Rows)-1].Faults)
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
