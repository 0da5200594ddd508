package fault

import (
	"fmt"
	"math/rand"
	"strings"

	"powermanna/internal/metrics"
	"powermanna/internal/netsim"
	"powermanna/internal/psim"
	"powermanna/internal/sim"
	"powermanna/internal/stats"
	"powermanna/internal/topo"
	"powermanna/internal/trace"
)

// Campaign run defaults. A campaign is a pure function of (spec, Options),
// so these are part of the reproducible surface: the CI golden table pins
// them.
const (
	// DefaultSeed drives schedule and traffic generation when Options.Seed
	// is zero.
	DefaultSeed = 1
	// DefaultMessages is the traffic volume per degradation row.
	DefaultMessages = 400
	// DefaultPayloadBytes is the per-message payload.
	DefaultPayloadBytes = 256
	// DefaultWindow is the simulated span traffic is spread over.
	DefaultWindow = 2 * sim.Millisecond
	// faultSpan limits injection times to the window's first half, so
	// traffic after the fault exists to feel it.
	faultSpanDiv = 2
	// corruptDiv sizes a corruption or stall window as window/corruptDiv.
	corruptDiv = 8
	// stuckOutlast makes stuck-busy windows outlast the whole run: stuck
	// means stuck.
	stuckOutlast = 2
	// faultSeedStride separates the fault-schedule stream of each
	// degradation row from the (shared) traffic stream.
	faultSeedStride = 1_000_003
)

// Campaign is a named fault-injection experiment: which fault kinds to
// inject and a sweep of fault counts, each count producing one row of the
// degradation table.
type Campaign struct {
	// Name is the CLI key (pmfault --campaign <name>).
	Name string
	// Description says what the campaign demonstrates.
	Description string
	// Kinds are the fault classes drawn from when scheduling.
	Kinds []Kind
	// Rates is the fault-count sweep; a leading 0 row is the
	// latency-inflation baseline.
	Rates []int
	// BothPlanes lets faults land on plane B too; single-plane campaigns
	// attack only plane A, so failover always has a healthy plane and no
	// message may be lost.
	BothPlanes bool
	// PerXbar adds a per-crossbar breakdown table (opened/blocked/stuck
	// counters of every crossbar with activity) to the highest-rate row —
	// the view that shows a central-stage fault radiating across clusters.
	PerXbar bool
	// DefaultTopology overrides the Options default (Cluster8) when the
	// caller leaves Options.Topology nil — campaigns whose fault class
	// needs structure Cluster8 lacks (a central stage) set it.
	DefaultTopology func() *topo.Topology
}

// Campaigns lists the named campaigns in CLI order.
func Campaigns() []Campaign {
	return []Campaign{
		{
			Name:        "link-cut",
			Description: "sever plane-A uplink wires; every affected message must fail over to plane B",
			Kinds:       []Kind{LinkCut},
			Rates:       []int{0, 1, 2, 4},
		},
		{
			Name:        "xbar-stuck",
			Description: "wedge plane-A crossbar output arbiters; circuits time out and fail over",
			Kinds:       []Kind{XbarStuck},
			Rates:       []int{0, 1, 2, 4},
		},
		{
			Name:        "flit-corrupt",
			Description: "garble bytes on plane-A wires; the NI's CRC catches it and the NACK path retries",
			Kinds:       []Kind{FlitCorrupt},
			Rates:       []int{0, 1, 2, 4},
		},
		{
			Name:        "ni-stall",
			Description: "wedge plane-A link interfaces; the driver abandons the FIFO and fails over",
			Kinds:       []Kind{NIStall},
			Rates:       []int{0, 1, 2, 4},
		},
		{
			Name:            "central-cut",
			Description:     "sever central-stage crossbar wires on plane A; one cut degrades the routes of a whole 16-node cluster (System256)",
			Kinds:           []Kind{CentralCut},
			Rates:           []int{0, 2, 4, 8},
			PerXbar:         true,
			DefaultTopology: topo.System256,
		},
		{
			Name:        "mixed",
			Description: "all fault classes on both planes; messages may fail when both planes are hit",
			Kinds:       []Kind{LinkCut, XbarStuck, FlitCorrupt, NIStall},
			Rates:       []int{0, 2, 4, 8},
			BothPlanes:  true,
		},
	}
}

// CampaignByName finds a campaign by its CLI key.
func CampaignByName(name string) (Campaign, bool) {
	for _, c := range Campaigns() {
		if c.Name == name {
			return c, true
		}
	}
	return Campaign{}, false
}

// Options configures a campaign run. The zero value is a full default
// run: seed 1, Cluster8, 400 messages of 256 bytes over 2 ms.
type Options struct {
	// Seed drives fault scheduling and traffic; zero means DefaultSeed.
	Seed int64
	// Topology is the interconnect under test; nil means topo.Cluster8().
	Topology *topo.Topology
	// Messages and PayloadBytes shape the traffic; zero means the
	// defaults above, a negative value is an error.
	Messages, PayloadBytes int
	// Window is the simulated span traffic spreads over; zero means
	// DefaultWindow, a negative span is an error.
	Window sim.Time
	// Trace, when non-nil, records the highest-rate row's run (network
	// sends, circuit holds, failover attempts) into the recorder — the
	// hook cmd/pmtrace uses to turn a campaign into a timeline.
	Trace *trace.Recorder
	// Metrics, when non-nil, receives the highest-rate row's instrument
	// readings (send outcomes, latency and detection histograms,
	// arbitration waits; receive waits and runtime token stats for
	// application workloads) — the hook behind pmfault --metrics.
	Metrics *metrics.Registry
	// Engine selects the execution engine (pmfault --engine). psim.Seq,
	// the default, runs the sweep row by row on sequential event queues;
	// psim.Par gives every rate row its own psim shard and runs them
	// concurrently — rows share no mutable state, so the merged result
	// is byte-identical to the sequential run.
	Engine psim.Kind
	// Shards partitions application workloads that run over the
	// node-partitioned datapath (mpl.PWorld campaigns): under Engine ==
	// psim.Par each row's world spreads its nodes across this many psim
	// shards. Zero means 1; a negative count is an error. The
	// partitioned determinism contract keeps
	// the result byte-identical at every aligned shard count, so Shards
	// changes wall-clock, never output.
	Shards int
}

// resolved fills the defaults and rejects negative counts and sizes.
func (o Options) resolved() (Options, error) {
	switch {
	case o.Shards < 0:
		return o, fmt.Errorf("fault: shard count %d is negative", o.Shards)
	case o.Messages < 0:
		return o, fmt.Errorf("fault: message count %d is negative", o.Messages)
	case o.PayloadBytes < 0:
		return o, fmt.Errorf("fault: payload size %d is negative", o.PayloadBytes)
	case o.Window < 0:
		return o, fmt.Errorf("fault: window %v is negative", o.Window)
	}
	if o.Seed == 0 {
		o.Seed = DefaultSeed
	}
	if o.Topology == nil {
		o.Topology = topo.Cluster8()
	}
	if o.Messages == 0 {
		o.Messages = DefaultMessages
	}
	if o.PayloadBytes == 0 {
		o.PayloadBytes = DefaultPayloadBytes
	}
	if o.Window == 0 {
		o.Window = DefaultWindow
	}
	if o.Shards == 0 {
		o.Shards = 1
	}
	return o, nil
}

// Row is one line of the degradation table: the outcome of one traffic
// run under a fixed number of injected faults.
type Row struct {
	// Faults is the injected fault count.
	Faults int
	// Delivered, Retried and Failed partition the messages: Retried ⊆
	// Delivered arrived via plane-B failover; Failed found no plane.
	Delivered, Retried, Failed int
	// Skipped counts plane attempts short-circuited by the senders'
	// plane-down caches — each one traded a full detection window for a
	// cached status check.
	Skipped int
	// MeanLatency averages sender-observed latency over delivered
	// messages, detection and retry costs included.
	MeanLatency sim.Time
	// Inflation is MeanLatency over the fault-free row's mean.
	Inflation float64
}

// Result is one campaign's full outcome.
type Result struct {
	// Campaign is the spec that ran.
	Campaign Campaign
	// Options are the resolved run parameters.
	Options Options
	// Rows is the degradation table, one row per Rates entry.
	Rows []Row
	// Schedule is the highest-rate row's fault schedule, sorted by time.
	Schedule []Event
	// PlaneA and PlaneB are the highest-rate row's degraded-mode
	// counters.
	PlaneA, PlaneB stats.CounterSet
	// Xbars is the highest-rate row's per-crossbar breakdown (campaigns
	// with PerXbar set; nil otherwise).
	Xbars *stats.Table
}

// message is one unit of generated traffic.
type message struct {
	at       sim.Time
	src, dst int
}

// genTraffic spreads opt.Messages across the window with seeded jitter,
// random distinct endpoints, ascending in time. The stream depends only
// on the rng, so every degradation row sees identical traffic. (Named
// to keep the identifier free for the internal/traffic import.)
func genTraffic(t *topo.Topology, opt Options, rng *rand.Rand) []message {
	msgs := make([]message, 0, opt.Messages)
	spacing := opt.Window / sim.Time(opt.Messages)
	if spacing <= 0 {
		spacing = 1
	}
	for i := 0; i < opt.Messages; i++ {
		jitter := sim.Time(rng.Int63n(int64(spacing/faultSpanDiv) + 1))
		src := rng.Intn(t.Nodes())
		dst := rng.Intn(t.Nodes() - 1)
		if dst >= src {
			dst++
		}
		msgs = append(msgs, message{at: spacing*sim.Time(i) + jitter, src: src, dst: dst})
	}
	return msgs
}

// schedule draws count faults for the campaign from the rng: kind, plane,
// time in the window's first half, and a target that exists in the
// topology (a node's uplink, a wired output port of a plane's crossbar).
func schedule(c Campaign, t *topo.Topology, count int, window sim.Time, rng *rand.Rand) []Event {
	planes := t.CrossbarPlanes()
	// Crossbar ordinals per plane, ascending — deterministic target pools.
	// central holds the same split restricted to central-stage crossbars.
	var pool, central [2][]int
	isCentral := map[int]bool{}
	for _, xi := range t.CentralCrossbars() {
		isCentral[xi] = true
	}
	for xi, p := range planes {
		if p == topo.NetworkA || p == topo.NetworkB {
			pool[p] = append(pool[p], xi)
			if isCentral[xi] {
				central[p] = append(central[p], xi)
			}
		}
	}
	events := make([]Event, 0, count)
	for i := 0; i < count; i++ {
		kind := c.Kinds[rng.Intn(len(c.Kinds))]
		plane := topo.NetworkA
		if c.BothPlanes && rng.Intn(2) == 1 {
			plane = topo.NetworkB
		}
		at := sim.Time(rng.Int63n(int64(window / faultSpanDiv)))
		e := Event{Kind: kind, At: at, Plane: plane}
		switch kind {
		case LinkCut:
			e.Node = rng.Intn(t.Nodes())
		case FlitCorrupt:
			e.Node = rng.Intn(t.Nodes())
			e.Until = at + window/corruptDiv
		case NIStall:
			e.Node = rng.Intn(t.Nodes())
			e.Until = at + window/corruptDiv
		case XbarStuck:
			if len(pool[plane]) == 0 {
				continue // no crossbar serves this plane; drop the event
			}
			e.Xbar = pool[plane][rng.Intn(len(pool[plane]))]
			wired := t.WiredPorts(e.Xbar)
			e.Out = wired[rng.Intn(len(wired))]
			e.Until = window * stuckOutlast
		case CentralCut:
			if len(central[plane]) == 0 {
				continue // no central stage on this plane; drop the event
			}
			e.Xbar = central[plane][rng.Intn(len(central[plane]))]
			wired := t.WiredPorts(e.Xbar)
			e.Out = wired[rng.Intn(len(wired))]
		}
		events = append(events, e)
	}
	return events
}

// rateOutcome is one degradation row's full result, produced by the
// row's event stream and read back only after its engine has drained —
// the assembly step is the single synchronization point between rows.
type rateOutcome struct {
	row      Row
	err      error
	schedule []Event
	planeA   stats.CounterSet
	planeB   stats.CounterSet
	xbars    *stats.Table
}

// runRate schedules one degradation row onto an event engine: a setup
// event at time zero builds the row's private machine (network,
// per-source transports, injector) and schedules every generated
// message at its send time, followed by a finalize event that closes
// the accounting. Everything the row's events touch — network, RNG
// streams, the outcome — is confined to the row, which is exactly what
// makes a row a valid psim shard: the parallel sweep runs one row per
// shard with no cross-shard events at all.
func runRate(c Campaign, opt Options, cfg netsim.FailoverConfig, rate int, observed bool, eng sim.Engine, out *rateOutcome) {
	eng.At(0, func() {
		net := netsim.New(opt.Topology)
		if observed {
			// Only the highest-rate (most interesting) row is observed; the
			// earlier sweep rows would bury it in identical fault-free
			// readings.
			if opt.Trace != nil {
				net.SetRecorder(opt.Trace)
			}
			if opt.Metrics != nil {
				net.SetMetrics(opt.Metrics)
			}
		}
		tps := net.Transports(cfg)
		msgs := genTraffic(opt.Topology, opt, rand.New(rand.NewSource(opt.Seed)))
		events := schedule(c, opt.Topology, rate,
			opt.Window, rand.New(rand.NewSource(opt.Seed+faultSeedStride*int64(rate))))
		inj := NewInjector(net, events)
		//pmlint:allow sharedstate row-confined: every handler writing out runs on this row's own shard
		out.row = Row{Faults: rate}
		var latSum sim.Time
		var last sim.Time
		for _, m := range msgs {
			m := m
			if m.at > last {
				last = m.at
			}
			eng.At(m.at, func() {
				if out.err != nil {
					return
				}
				inj.ApplyUntil(m.at)
				d, err := tps[m.src].Send(m.at, m.dst, opt.PayloadBytes)
				if err != nil {
					out.err = fmt.Errorf("fault: campaign %q: %w", c.Name, err)
					return
				}
				out.row.Skipped += d.SkippedDown
				switch {
				case d.Failed:
					out.row.Failed++
				default:
					out.row.Delivered++
					//pmlint:allow sharedstate row-confined: send and finalize handlers share this row's shard
					latSum += d.Latency()
					if d.Retried {
						out.row.Retried++
					}
				}
			})
		}
		// Finalize shares the last message's time; equal times fire in
		// push order, so it runs after every send.
		eng.At(last, func() {
			if out.row.Delivered > 0 {
				out.row.MeanLatency = latSum / sim.Time(out.row.Delivered)
			}
			out.schedule = inj.Events()
			out.planeA = net.PlaneCounterSet(topo.NetworkA)
			out.planeB = net.PlaneCounterSet(topo.NetworkB)
			if c.PerXbar {
				out.xbars = xbarTable(net, opt.Topology)
			}
			if observed && opt.Metrics != nil {
				publishDispatchOccupancy(opt.Metrics, net.Plane(topo.NetworkA).Delivered+net.Plane(topo.NetworkB).Delivered)
			}
		})
	})
}

// Run executes the campaign: for each fault count in the sweep it builds
// a fresh network over the topology, generates the (rate-independent)
// traffic and a (rate-dependent) fault schedule from the seed, posts
// every message through a per-source Transport (failover protocol plus
// plane-down cache) with faults applied in time order, and collects a
// degradation row. psim.RunRows runs the rows, under Options.Engine ==
// psim.Par concurrently, one psim shard each. Deterministic either way: same
// spec and options, byte-identical Result.
func Run(c Campaign, opt Options) (*Result, error) {
	if opt.Topology == nil && c.DefaultTopology != nil {
		opt.Topology = c.DefaultTopology()
	}
	opt, err := opt.resolved()
	if err != nil {
		return nil, err
	}
	if len(c.Rates) == 0 || len(c.Kinds) == 0 {
		return nil, fmt.Errorf("fault: campaign %q has no rates or kinds", c.Name)
	}
	res := &Result{Campaign: c, Options: opt}
	cfg := netsim.DefaultFailover()
	outs := make([]rateOutcome, len(c.Rates))
	psim.RunRows(opt.Engine, len(c.Rates), func(i int, eng sim.Engine) {
		runRate(c, opt, cfg, c.Rates[i], i == len(c.Rates)-1, eng, &outs[i])
	})
	// Assemble in sweep order. Inflation replicates the sequential
	// incremental semantics exactly: the baseline is looked up against
	// the rows assembled so far, so the 0-rate row itself takes the
	// Inflation=1 branch.
	for i := range outs {
		if outs[i].err != nil {
			return nil, outs[i].err
		}
		row := outs[i].row
		if base := res.baseline(); base > 0 && row.MeanLatency > 0 {
			row.Inflation = float64(row.MeanLatency) / float64(base)
		} else if row.Faults == 0 {
			row.Inflation = 1
		}
		res.Rows = append(res.Rows, row)
	}
	// The sweep's last (highest-rate) run provides the detailed view.
	last := &outs[len(outs)-1]
	res.Schedule = last.schedule
	res.PlaneA = last.planeA
	res.PlaneB = last.planeB
	res.Xbars = last.xbars
	return res, nil
}

// xbarTable builds the per-crossbar breakdown of one run: every crossbar
// that saw activity, with its plane and opened/blocked/stuck counters.
func xbarTable(net *netsim.Network, t *topo.Topology) *stats.Table {
	planes := t.CrossbarPlanes()
	tbl := &stats.Table{
		Title:   "per-crossbar breakdown (highest-rate row)",
		Columns: []string{"xbar", "name", "plane", "opened", "blocked", "stuck"},
	}
	for i := 0; i < t.Crossbars(); i++ {
		st := net.Crossbar(i).Stats()
		if st.Opened == 0 && st.Blocked == 0 && st.Stuck == 0 {
			continue
		}
		plane := "-"
		switch planes[i] {
		case topo.NetworkA:
			plane = "A"
		case topo.NetworkB:
			plane = "B"
		}
		tbl.AddRow(
			fmt.Sprintf("%d", i),
			t.CrossbarName(i),
			plane,
			fmt.Sprintf("%d", st.Opened),
			fmt.Sprintf("%d", st.Blocked),
			fmt.Sprintf("%d", st.Stuck),
		)
	}
	return tbl
}

// baseline returns the fault-free mean latency once its row exists.
func (r *Result) baseline() sim.Time {
	for _, row := range r.Rows {
		if row.Faults == 0 {
			return row.MeanLatency
		}
	}
	return 0
}

// Table renders the degradation table.
func (r *Result) Table() *stats.Table {
	t := &stats.Table{
		Title:   fmt.Sprintf("degradation — %s", r.Campaign.Name),
		Columns: []string{"faults", "delivered", "retried", "skipped", "failed", "mean-lat-us", "inflation"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprintf("%d", row.Faults),
			fmt.Sprintf("%d", row.Delivered),
			fmt.Sprintf("%d", row.Retried),
			fmt.Sprintf("%d", row.Skipped),
			fmt.Sprintf("%d", row.Failed),
			fmt.Sprintf("%.3f", row.MeanLatency.Seconds()*1e6),
			fmt.Sprintf("%.3f", row.Inflation),
		)
	}
	return t
}

// Render produces the campaign's full deterministic text block: header,
// degradation table, the highest-rate fault schedule, and per-plane
// degraded-mode counters.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### campaign %s — %s\n", r.Campaign.Name, r.Campaign.Description)
	fmt.Fprintf(&b, "topology %s, seed %d, %d messages x %d B over %v\n\n",
		r.Options.Topology.Name(), r.Options.Seed, r.Options.Messages,
		r.Options.PayloadBytes, r.Options.Window)
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
	if r.Xbars != nil {
		b.WriteByte('\n')
		b.WriteString(r.Xbars.Render())
	}
	return b.String()
}
