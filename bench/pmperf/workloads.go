package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"powermanna"
	"powermanna/internal/fault"
	"powermanna/internal/heat"
	"powermanna/internal/metrics"
	"powermanna/internal/mpl"
	"powermanna/internal/netsim"
	"powermanna/internal/psim"
	"powermanna/internal/sim"
	"powermanna/internal/stats"
	"powermanna/internal/topo"
	"powermanna/internal/trace"
	"powermanna/internal/traffic"
	"powermanna/internal/xbar"
)

// runConfig selects one configuration of a workload.
type runConfig struct {
	seed int64
	// par runs on psim.Par at 2 shards (the par2 engine); otherwise seq.
	par bool
	// quick shrinks the workload to smoke-test size.
	quick bool
	// variant is a per-layer toggle run only in the traced pass; "" is
	// the timed configuration.
	variant string
}

// prepared is a workload after set-up, ready to run.
type prepared struct {
	// run executes the workload and renders the report the matching CLI
	// would print; it is what run_s times. A run made of units of a
	// second or more calls pause between them (reference.go).
	run func(pause func()) (string, error)
	// check verifies the computation against a reference, untimed (nil
	// when the digest is the only check).
	check func() error
	// counts reads the layers' counters after run, untimed.
	counts func(out map[string]float64)
}

// toggle is a per-layer cost measured by switching one thing on: the
// run time of the on configuration over that of the off one, minus 1.
// "" names the timed seq configuration and "par2" the timed par2 one.
type toggle struct {
	metric  string
	on, off string
}

// workload is one pinned input set of the benchmark.
type workload struct {
	name    string
	prepare func(rc runConfig, sp *spanRecorder) (*prepared, error)
	toggles []toggle
	// countsVariant is the configuration whose counts stand for the
	// workload's model counts ("" = the traced run).
	countsVariant string
}

// workloads are the benchmark's inputs in BENCHMARK.json order; README.md
// says why each was chosen.
var workloads = []*workload{
	{
		name:    "traffic-default",
		prepare: prepareTraffic(traffic.DefaultMix, 40*sim.Millisecond, 0),
		toggles: []toggle{
			{metric: "telemetry.cost_pct", on: "", off: "telemetry-off"},
			{metric: "trace.cost_pct", on: "sim-trace", off: ""},
		},
	},
	{
		name:    "traffic-bursty-cut",
		prepare: prepareTraffic(traffic.BurstyMix, 10*sim.Millisecond, 16),
	},
	{
		name:    "heat-spmd",
		prepare: prepareHeat,
		toggles: []toggle{
			{metric: "psim.partition_cost_pct", on: "serial2", off: ""},
			{metric: "psim.dispatch_cost_pct", on: "par2", off: "serial2"},
		},
		countsVariant: "metrics",
	},
	{name: "fault-campaigns", prepare: prepareFault},
	{name: "paper-figs", prepare: preparePaper},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// variants lists the configurations besides the timed seq one that the
// traced pass runs, in first-use order.
func (w *workload) variants() []string {
	var out []string
	add := func(v string) {
		if v == "" {
			return
		}
		for _, have := range out {
			if have == v {
				return
			}
		}
		out = append(out, v)
	}
	for _, t := range w.toggles {
		add(t.on)
		add(t.off)
	}
	add(w.countsVariant)
	return out
}

// knowsVariant reports whether a worker of this workload accepts
// --variant v ("par2" is an engine, not a variant).
func (w *workload) knowsVariant(v string) bool {
	if v == "" {
		return true
	}
	for _, have := range w.variants() {
		if have == v && v != "par2" {
			return true
		}
	}
	return false
}

func engineName(par bool) string {
	if par {
		return "par2"
	}
	return "seq"
}

// workerResult is what one repetition reports to the parent.
type workerResult struct {
	// EntryUnixNano and ReadyUnixNano are the wall-clock instants the
	// worker's main began and its set-up finished; with the parent's
	// launch instant they give setup_s.
	EntryUnixNano int64   `json:"entry_unix_ns"`
	ReadyUnixNano int64   `json:"ready_unix_ns"`
	RunS          float64 `json:"run_s"`
	// PauseRefS are the reference load's times measured in the run's
	// pauses; RunS, AllocBytes and Mallocs leave the pauses out.
	PauseRefS []float64 `json:"pause_ref_s,omitempty"`
	// PeakRSSBytes is the process's peak resident set through set-up and
	// run.
	PeakRSSBytes uint64 `json:"peak_rss_bytes"`
	// AllocBytes and Mallocs are MemStats.TotalAlloc and Mallocs deltas
	// over the run.
	AllocBytes uint64             `json:"alloc_bytes"`
	Mallocs    uint64             `json:"mallocs"`
	Digest     string             `json:"digest,omitempty"`
	Counts     map[string]float64 `json:"counts,omitempty"`
}

// runWorker performs one repetition of w: set-up, then (unless
// setupOnly) the timed run, the untimed output digest, check and
// counts.
func runWorker(w *workload, rc runConfig, sp *spanRecorder, setupOnly bool) (workerResult, error) {
	var res workerResult
	p, err := w.prepare(rc, sp)
	if err != nil {
		return res, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	res.ReadyUnixNano = time.Now().UnixNano()
	if setupOnly {
		return res, nil
	}

	// Collect set-up garbage first, so the run starts from the same heap
	// state on every repetition.
	runtime.GC()
	var before, after runtime.MemStats
	var pausedFor time.Duration
	var pausedBytes, pausedMallocs uint64
	pause := func() {
		var m0, m1 runtime.MemStats
		t0 := time.Now()
		// Collect first, so that no collection of the run's garbage lands
		// in the reference time. The collections leave the run's time
		// too; on paper-figs they take 0.2% of it (51 ms of 22.6 s).
		runtime.GC()
		runtime.ReadMemStats(&m0)
		res.PauseRefS = append(res.PauseRefS, referenceSeconds())
		runtime.ReadMemStats(&m1)
		pausedFor += time.Since(t0)
		pausedBytes += m1.TotalAlloc - m0.TotalAlloc
		pausedMallocs += m1.Mallocs - m0.Mallocs
	}
	runtime.ReadMemStats(&before)
	start := time.Now()
	out, err := p.run(pause)
	res.RunS = (time.Since(start) - pausedFor).Seconds()
	runtime.ReadMemStats(&after)
	if err != nil {
		return res, fmt.Errorf("%s: %w", w.name, err)
	}
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc - pausedBytes
	res.Mallocs = after.Mallocs - before.Mallocs - pausedMallocs
	if res.PeakRSSBytes, err = peakRSS(); err != nil {
		return res, err
	}
	sum := sha256.Sum256([]byte(out))
	res.Digest = hex.EncodeToString(sum[:])
	if p.check != nil {
		if err := p.check(); err != nil {
			return res, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	res.Counts = map[string]float64{}
	p.counts(res.Counts)
	return res, nil
}

// peakRSS reads the process's peak resident set (VmHWM) from
// /proc/self/status. The parent cannot take it from the process usage:
// Go starts a child with vfork, and Linux carries the parent's
// high-water mark into the child's maxrss through exec.
func peakRSS() (uint64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// prepareTraffic builds an open-loop traffic workload on System256: the
// mix's seeded streams scheduled up to the horizon, plus the pmstat
// link-cut scenario at the given fault count (0 = healthy machine).
func prepareTraffic(mix func() traffic.Mix, horizon sim.Time, faults int) func(runConfig, *spanRecorder) (*prepared, error) {
	return func(rc runConfig, sp *spanRecorder) (*prepared, error) {
		h := horizon
		if rc.quick {
			h = traffic.DefaultHorizon
		}
		end := sp.begin("topo.build")
		t := topo.System256()
		end()
		opt := traffic.Options{Seed: rc.seed, Topology: t, Horizon: h, Telemetry: rc.variant != "telemetry-off"}
		if rc.par {
			opt.Engine, opt.Shards = psim.Par, 2
		}
		if rc.variant == "sim-trace" {
			opt.Trace = trace.NewRecorder()
		}
		end = sp.begin("traffic.new")
		eng, err := traffic.New(mix(), opt)
		end()
		if err != nil {
			return nil, err
		}
		var events []fault.Event
		if faults > 0 {
			end = sp.begin("fault.inject")
			events = fault.ApplyTrafficScenario(eng.Network(), t, faults, h, rc.seed)
			end()
		}

		var res *traffic.Result
		return &prepared{
			run: func(func()) (string, error) {
				end := sp.begin("engine.run")
				r, err := eng.Run()
				end()
				if err != nil {
					return "", err
				}
				res = r
				defer sp.begin("report.render")()
				return renderTraffic(r, faults, events), nil
			},
			counts: func(out map[string]float64) {
				pn := eng.PartNetwork()
				out["psim.events"] = float64(pn.Engine().Steps())
				addPlanes(out, pn.Plane(topo.NetworkA), pn.Plane(topo.NetworkB))
				addWaits(out, res.Registry)
				var worst sim.Time
				for _, ts := range res.Tenants {
					out["traffic.offered"] += float64(ts.Offered)
					out["traffic.delivered"] += float64(ts.Delivered)
					out["traffic.failed"] += float64(ts.Failed)
					out["traffic.violations"] += float64(ts.Violations)
					if ts.P99 > worst {
						worst = ts.P99
					}
				}
				out["traffic.worst_p99_us"] = worst.Micros()
				if sp != nil {
					out["traffic.new_ms"] = sp.seconds("traffic.new") * 1e3
				}
			},
		}, nil
	}
}

// renderTraffic renders the service report, the fault scenario and the
// pmstat burn-rate and decomposition tables.
func renderTraffic(r *traffic.Result, faults int, events []fault.Event) string {
	var b strings.Builder
	b.WriteString(r.Render())
	if faults > 0 {
		fmt.Fprintf(&b, "\nfault scenario link-cut at %d faults:\n", faults)
		for _, e := range events {
			fmt.Fprintf(&b, "  %s\n", e)
		}
	}
	if r.Telemetry != nil {
		b.WriteByte('\n')
		b.WriteString(r.BurnTable().Render())
		b.WriteByte('\n')
		b.WriteString(r.DecompTable().Render())
	}
	return b.String()
}

// prepareHeat builds the SPMD heat solve on System256: one rank per
// node over the partitioned datapath, 1 shard (serial) under seq and 2
// shards under par2. The solve has no random input, so the seed only
// labels the run.
func prepareHeat(rc runConfig, sp *spanRecorder) (*prepared, error) {
	steps := 1200
	if rc.quick {
		steps = 30
	}
	cfg := heat.DefaultConfig(24*256, steps)
	shards := 1
	if rc.par || rc.variant == "serial2" {
		shards = 2
	}
	end := sp.begin("topo.build")
	t := topo.System256()
	end()
	end = sp.begin("mpl.build")
	w, err := mpl.NewPWorld(t, shards)
	end()
	if err != nil {
		return nil, err
	}
	if !rc.par {
		w.PartNetwork().SetSerial(true)
	}
	var reg *metrics.Registry
	if rc.variant == "metrics" {
		reg = metrics.NewRegistry()
		w.SetMetrics(reg)
	}

	var res heat.Result
	return &prepared{
		run: func(func()) (string, error) {
			end := sp.begin("engine.run")
			r, err := heat.RunPart(w, cfg)
			end()
			if err != nil {
				return "", err
			}
			res = r
			defer sp.begin("report.render")()
			return renderHeat(cfg, r), nil
		},
		check: func() error {
			want, err := heat.RunSerial(cfg)
			if err != nil {
				return err
			}
			for i := range want {
				if res.Field[i] != want[i] {
					return fmt.Errorf("heat field diverges from the serial solve at cell %d", i)
				}
			}
			return nil
		},
		counts: func(out map[string]float64) {
			pn := w.PartNetwork()
			out["psim.events"] = float64(pn.Engine().Steps())
			addPlanes(out, pn.Plane(topo.NetworkA), pn.Plane(topo.NetworkB))
			msgs, bytes := w.Stats()
			out["mpl.msgs"] = float64(msgs)
			out["mpl.bytes"] = float64(bytes)
			out["heat.makespan_us"] = res.Makespan.Micros()
			if reg != nil {
				addWaits(out, reg)
				out["mpl.recv_wait_us"] = sim.Time(reg.Histogram(mpl.MetricRecvWait, nil).Sum()).Micros()
			}
		},
	}, nil
}

func renderHeat(cfg heat.Config, r heat.Result) string {
	bits := make([]byte, 8*len(r.Field))
	for i, v := range r.Field {
		binary.LittleEndian.PutUint64(bits[8*i:], math.Float64bits(v))
	}
	return fmt.Sprintf("heat %d cells x %d steps on %d ranks\nmakespan %v (%d ps)\nmessages %d, payload bytes %d\nfield sha256 %x\n",
		cfg.Cells, cfg.Steps, r.Ranks, r.Makespan, int64(r.Makespan), r.Messages, r.MsgBytes, sha256.Sum256(bits))
}

// prepareFault runs every message campaign and every application
// campaign on System256 (their own default topologies when quick).
// Networks are built per degradation row inside the campaigns, so
// set-up is the topology alone.
func prepareFault(rc runConfig, sp *spanRecorder) (*prepared, error) {
	var t *topo.Topology
	if !rc.quick {
		end := sp.begin("topo.build")
		t = topo.System256()
		end()
	}
	opt := fault.Options{Seed: rc.seed, Topology: t}
	if rc.par {
		opt.Engine, opt.Shards = psim.Par, 2
		if rc.quick {
			opt.Shards = 1 // Cluster8 is a single leaf group
		}
	}
	campaigns, apps := fault.Campaigns(), fault.AppCampaigns()

	var planes []netsim.PlaneCounters
	return &prepared{
		run: func(func()) (string, error) {
			var b strings.Builder
			for _, c := range campaigns {
				end := sp.begin("fault.run/" + c.Name)
				r, err := fault.Run(c, opt)
				end()
				if err != nil {
					return "", err
				}
				end = sp.begin("report.render")
				b.WriteString(r.Render())
				b.WriteByte('\n')
				end()
				planes = append(planes, planeCounters(r.PlaneA), planeCounters(r.PlaneB))
			}
			for _, c := range apps {
				end := sp.begin("fault.runapp/" + c.Name)
				r, err := fault.RunApp(c, opt)
				end()
				if err != nil {
					return "", err
				}
				end = sp.begin("report.render")
				b.WriteString(r.Render())
				b.WriteByte('\n')
				end()
				planes = append(planes, planeCounters(r.PlaneA), planeCounters(r.PlaneB))
			}
			return b.String(), nil
		},
		counts: func(out map[string]float64) {
			addPlanes(out, planes...)
			if sp != nil {
				out["fault.msg_campaigns_s"] = sp.seconds("fault.run/")
				out["fault.app_campaigns_s"] = sp.seconds("fault.runapp/")
			}
		},
	}, nil
}

// preparePaper regenerates every table and figure of the paper at quick
// sweep sizes, through the public facade. Its run takes a whole
// measurement's budget, so it pauses before every experiment to time
// the host's speed along the run.
func preparePaper(rc runConfig, sp *spanRecorder) (*prepared, error) {
	ids := powermanna.ExperimentIDs()
	if rc.quick {
		ids = []string{"table1", "fig9", "fig11"}
	}
	opt := powermanna.ExperimentOptions{Quick: true, Seed: rc.seed}
	if rc.par {
		opt.Engine = psim.Par
	}
	return &prepared{
		run: func(pause func()) (string, error) {
			var b strings.Builder
			for _, id := range ids {
				pause()
				end := sp.begin("experiment/" + id)
				r, err := powermanna.RunExperiment(id, opt)
				if err != nil {
					end()
					return "", err
				}
				endRender := sp.begin("report.render")
				b.WriteString(r.Render())
				b.WriteByte('\n')
				endRender()
				end()
			}
			return b.String(), nil
		},
		counts: func(out map[string]float64) {
			out["experiments.paper_err_pct"] = paperErrorPct()
			if sp == nil {
				return
			}
			var named float64
			for _, id := range []string{"fig5", "fig7a", "fig7b"} {
				s := sp.seconds("experiment/" + id)
				out["experiments."+id+"_s"] = s
				named += s
			}
			out["experiments.rest_s"] = sp.seconds("experiment/") - named
		},
	}, nil
}

// paperErrorPct is the model's largest relative error, in percent,
// against the numbers the paper quotes: the Figure 9 8-byte one-way
// latencies of PowerMANNA, BIP and FM, and the Figure 11 PowerMANNA
// saturation bandwidth.
func paperErrorPct() float64 {
	pm := powermanna.NewPowerMANNAComm()
	anchors := []struct{ got, paper float64 }{
		{pm.OneWayLatency(8).Micros(), 2.75},
		{powermanna.BIP().OneWayLatency(8).Micros(), 6.4},
		{powermanna.FM().OneWayLatency(8).Micros(), 9.2},
		{pm.UniBandwidth(256<<10) / 1e6, 60},
	}
	var worst float64
	for _, a := range anchors {
		worst = math.Max(worst, math.Abs(a.got-a.paper)/a.paper*100)
	}
	return worst
}

// planeCounters reads back the counters a campaign report carries.
func planeCounters(cs stats.CounterSet) netsim.PlaneCounters {
	return netsim.PlaneCounters{
		Attempts:      cs.Get("attempts"),
		Delivered:     cs.Get("delivered"),
		SetupTimeouts: cs.Get("setup-timeouts"),
		FailedOver:    cs.Get("failed-over"),
		SkippedDown:   cs.Get("skipped-down"),
	}
}

// addPlanes accumulates the send-protocol counts of both planes.
func addPlanes(out map[string]float64, planes ...netsim.PlaneCounters) {
	var attempts, delivered int64
	for _, p := range planes {
		attempts += p.Attempts
		delivered += p.Delivered
		out["netsim.failed_over"] += float64(p.FailedOver)
		out["netsim.skipped_down"] += float64(p.SkippedDown)
		out["netsim.setup_timeouts"] += float64(p.SetupTimeouts)
	}
	out["netsim.attempts"] = float64(attempts)
	if attempts > 0 {
		out["netsim.attempt_yield"] = float64(delivered) / float64(attempts)
	}
}

// addWaits reads the latency decomposition (simulated time) off a
// registry the network fed.
func addWaits(out map[string]float64, reg *metrics.Registry) {
	sum := func(name string) float64 { return sim.Time(reg.Histogram(name, nil).Sum()).Micros() }
	out["netsim.wait.wire_us"] = sum(netsim.MetricSendWaitPrefix + "wire")
	out["netsim.wait.detect_us"] = sum(netsim.MetricSendWaitPrefix + "detect")
	out["netsim.wait.retry_us"] = sum(netsim.MetricSendWaitPrefix + "retry")
	out["xbar.arb_wait_us"] = sum(netsim.MetricSendWaitPrefix + "arb")
	out["xbar.arb_wait_p99_us"] = reg.Histogram(xbar.MetricArbWait, nil).QuantileTime(0.99).Micros()
}
