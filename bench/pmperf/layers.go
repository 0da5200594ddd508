package main

import (
	"flag"
	"fmt"
	"os"
	"testing"

	"powermanna"
	"powermanna/internal/metrics"
	"powermanna/internal/mpl"
	"powermanna/internal/netsim"
	"powermanna/internal/psim"
	"powermanna/internal/sim"
	"powermanna/internal/telemetry"
	"powermanna/internal/topo"
	"powermanna/internal/traffic"
)

// metricDef names one metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit, better string
}

// endToEndDefs are the metrics a user of the simulator sees, reported by
// --trace 0 runs.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"run_par2_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"allocs_m", "M", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayerDefs are the single-layer metrics reported by --trace 1 runs.
// Every workload reports every one; a count the workload does not
// exercise reads 0. README.md maps each to the end-to-end metric and
// workload it should move.
var perLayerDefs = []metricDef{
	{"sim.step_ns", "ns", "lower"},
	{"sim.step_allocs", "allocs", "lower"},
	{"psim.events", "count", "lower"},
	{"psim.events_per_s", "events/s", "higher"},
	{"psim.post_ns", "ns", "lower"},
	{"psim.post_allocs", "allocs", "lower"},
	{"psim.round_ns", "ns", "lower"},
	{"psim.partition_cost_pct", "%", "lower"},
	{"psim.dispatch_cost_pct", "%", "lower"},
	{"topo.build_ms", "ms", "lower"},
	{"topo.build_mb", "MB", "lower"},
	{"topo.route_ns", "ns", "lower"},
	{"netsim.build_ms", "ms", "lower"},
	{"netsim.build_mb", "MB", "lower"},
	{"netsim.psend_ns", "ns", "lower"},
	{"netsim.psend_allocs", "allocs", "lower"},
	{"netsim.tsend_ns", "ns", "lower"},
	{"netsim.tsend_allocs", "allocs", "lower"},
	{"netsim.attempts", "count", "lower"},
	{"netsim.failed_over", "count", "lower"},
	{"netsim.skipped_down", "count", "higher"},
	{"netsim.setup_timeouts", "count", "lower"},
	{"netsim.attempt_yield", "ratio", "higher"},
	{"netsim.wait.wire_us", "us", "lower"},
	{"netsim.wait.detect_us", "us", "lower"},
	{"netsim.wait.retry_us", "us", "lower"},
	{"xbar.arb_wait_us", "us", "lower"},
	{"xbar.arb_wait_p99_us", "us", "lower"},
	{"mpl.msgs", "count", "lower"},
	{"mpl.bytes", "B", "lower"},
	{"mpl.recv_wait_us", "us", "lower"},
	{"mpl.sendrecv_ns", "ns", "lower"},
	{"heat.makespan_us", "us", "lower"},
	{"traffic.new_ms", "ms", "lower"},
	{"traffic.offered", "count", "higher"},
	{"traffic.delivered", "count", "higher"},
	{"traffic.failed", "count", "lower"},
	{"traffic.violations", "count", "lower"},
	{"traffic.worst_p99_us", "us", "lower"},
	{"traffic.msgs_per_s", "msgs/s", "higher"},
	{"telemetry.cost_pct", "%", "lower"},
	{"telemetry.observe_ns", "ns", "lower"},
	{"telemetry.merge_ms", "ms", "lower"},
	{"metrics.observe_ns", "ns", "lower"},
	{"metrics.quantile_ns", "ns", "lower"},
	{"trace.cost_pct", "%", "lower"},
	{"fault.msg_campaigns_s", "s", "lower"},
	{"fault.app_campaigns_s", "s", "lower"},
	{"experiments.fig5_s", "s", "lower"},
	{"experiments.fig7a_s", "s", "lower"},
	{"experiments.fig7b_s", "s", "lower"},
	{"experiments.rest_s", "s", "lower"},
	{"experiments.paper_err_pct", "%", "lower"},
	{"matmult.ns_per_iter", "ns", "lower"},
	{"hint.ns_per_split", "ns", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

// tracedPass is what the traced pass of one workload measured, in wall
// seconds: its figures are ratios or single-run rates, which a host
// speed change would move no more than the counts they divide.
type tracedPass struct {
	// baseRunS is the untraced seq run time; traced is the seq run with
	// the span recorder on; counted supplies the model counts.
	baseRunS float64
	traced   childRun
	counted  childRun
	// runS holds the run time of every configuration a toggle names.
	runS map[string]float64
}

// layerValues assembles every per-layer metric of a workload from its
// traced pass and the microbenchmarks.
func layerValues(w *workload, tp tracedPass, micro map[string]float64) map[string]float64 {
	// Span-derived counts exist only in the traced run; the counting run
	// supplies the rest.
	have := map[string]float64{}
	for k, v := range tp.traced.res.Counts {
		have[k] = v
	}
	for k, v := range tp.counted.res.Counts {
		have[k] = v
	}
	for k, v := range micro {
		have[k] = v
	}
	if base := tp.baseRunS; base > 0 {
		have["psim.events_per_s"] = have["psim.events"] / base
		have["traffic.msgs_per_s"] = have["traffic.delivered"] / base
		have["bench.trace_overhead_pct"] = costPct(tp.traced.res.RunS, base)
	}
	for _, t := range w.toggles {
		have[t.metric] = costPct(tp.runS[t.on], tp.runS[t.off])
	}
	out := make(map[string]float64, len(perLayerDefs))
	for _, d := range perLayerDefs {
		out[d.name] = have[d.name]
	}
	return out
}

// costPct is how much longer on took than off, in percent.
func costPct(on, off float64) float64 {
	if on <= 0 || off <= 0 {
		return 0
	}
	return (on/off - 1) * 100
}

// micro is one per-layer microbenchmark: a testing.Benchmark body that
// times a public function, and the metrics its result yields.
type micro struct {
	name  string
	bench func(b *testing.B)
	emit  func(r testing.BenchmarkResult, out map[string]float64)
}

func nsPerOp(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }

// nsAllocs emits <prefix>_ns and <prefix>_allocs per operation.
func nsAllocs(prefix string) func(testing.BenchmarkResult, map[string]float64) {
	return func(r testing.BenchmarkResult, out map[string]float64) {
		out[prefix+"_ns"] = nsPerOp(r)
		out[prefix+"_allocs"] = float64(r.MemAllocs) / float64(r.N)
	}
}

// msMB emits <prefix>_ms and <prefix>_mb (allocated) per operation.
func msMB(prefix string) func(testing.BenchmarkResult, map[string]float64) {
	return func(r testing.BenchmarkResult, out map[string]float64) {
		out[prefix+"_ms"] = nsPerOp(r) / 1e6
		out[prefix+"_mb"] = float64(r.MemBytes) / float64(r.N) / 1e6
	}
}

// nsScaled emits the time per operation in ns, times scale.
func nsScaled(name string, scale float64) func(testing.BenchmarkResult, map[string]float64) {
	return func(r testing.BenchmarkResult, out map[string]float64) { out[name] = nsPerOp(r) * scale }
}

var micros = []micro{
	{"sim.step", benchSimStep, nsAllocs("sim.step")},
	{"psim.post", benchPsimPost, nsAllocs("psim.post")},
	{"psim.round", benchPsimRound, nsScaled("psim.round_ns", 1)},
	{"topo.build", benchTopoBuild, msMB("topo.build")},
	{"topo.route", benchTopoRoute, nsScaled("topo.route_ns", 1)},
	{"netsim.build", benchNetsimBuild, msMB("netsim.build")},
	{"netsim.psend", benchPSend, nsAllocs("netsim.psend")},
	{"netsim.tsend", benchTSend, nsAllocs("netsim.tsend")},
	{"mpl.sendrecv", benchSendRecv, nsScaled("mpl.sendrecv_ns", 1)},
	{"telemetry.observe", benchTelemetryObserve, nsScaled("telemetry.observe_ns", 1)},
	{"telemetry.merge", benchTelemetryMerge, nsScaled("telemetry.merge_ms", 1e-6)},
	{"metrics.observe", benchMetricsObserve, nsScaled("metrics.observe_ns", 1)},
	{"metrics.quantile", benchMetricsQuantile, nsScaled("metrics.quantile_ns", 1)},
	{"matmult", benchMatMult, nsScaled("matmult.ns_per_iter", 1.0/(matmultN*matmultN*matmultN))},
	{"hint", benchHint, nsScaled("hint.ns_per_split", 1.0/hintSplits)},
}

// microBenchTime is each microbenchmark's target measuring time.
const microBenchTime = "150ms"

// runMicros runs every microbenchmark and returns its metrics plus the
// names of those that failed.
func runMicros() (map[string]float64, []string) {
	testing.Init()
	if err := flag.Set("test.benchtime", microBenchTime); err != nil {
		panic(err) // the flag exists once testing.Init has run
	}
	out := map[string]float64{}
	var failed []string
	for _, m := range micros {
		r := testing.Benchmark(m.bench)
		if r.N == 0 {
			fmt.Fprintf(os.Stderr, "pmperf: microbenchmark %s failed\n", m.name)
			failed = append(failed, m.name)
			continue
		}
		m.emit(r, out)
	}
	return out, failed
}

// Sinks keep the compiler from discarding the measured calls.
var (
	sinkTopo *topo.Topology
	sinkI64  int64
)

// pseudo is a fixed-seed LCG for microbenchmark inputs.
type pseudo uint64

func (p *pseudo) next() uint64 {
	*p = *p*6364136223846793005 + 1442695040888963407
	return uint64(*p >> 33)
}

// benchSimStep schedules one event and dispatches one on a sequential
// scheduler holding 4096 pending events.
func benchSimStep(b *testing.B) {
	s := sim.NewScheduler()
	fn := func() {}
	rng := pseudo(1)
	for i := 0; i < 4096; i++ {
		s.At(sim.Time(rng.next()%1_000_000), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(s.Now()+sim.Time(rng.next()%1_000_000), fn)
		s.Step()
	}
}

type discard struct{}

func (discard) OnPost(*psim.Shard, any) {}

// benchPsimPost posts one payload from shard 0 to shard 1 one lookahead
// ahead, on a serial 2-shard engine, delivery included.
func benchPsimPost(b *testing.B) {
	la := psim.DefaultLookahead()
	eng := psim.NewEngine(2, la)
	eng.SetSerial(true)
	src := eng.Shard(0)
	var h psim.Handler = discard{}
	left := b.N
	var tick func()
	tick = func() {
		eng.PostPayload(0, 1, src.Now()+la, h, nil)
		if left--; left > 0 {
			src.After(2*la, tick)
		}
	}
	src.At(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// benchPsimRound runs barrier rounds of a parallel 2-shard engine with
// one event per shard per window.
func benchPsimRound(b *testing.B) {
	la := psim.DefaultLookahead()
	eng := psim.NewEngine(2, la)
	for s := 0; s < eng.Shards(); s++ {
		sh := eng.Shard(s)
		left := b.N
		var tick func()
		tick = func() {
			if left--; left > 0 {
				sh.After(la, tick)
			}
		}
		sh.At(0, tick)
	}
	b.ResetTimer()
	eng.Run()
}

func benchTopoBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkTopo = topo.System256()
	}
}

// benchTopoRoute routes every ordered System256 node pair on both
// planes, round robin.
func benchTopoRoute(b *testing.B) {
	t := topo.System256()
	n := t.Nodes()
	planes := [2]int{topo.NetworkA, topo.NetworkB}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % (2 * n * (n - 1))
		plane := planes[k%2]
		k /= 2
		src, dst := k/(n-1), k%(n-1)
		if dst >= src {
			dst++
		}
		if _, err := t.Route(src, dst, plane); err != nil {
			b.Fatal(err)
		}
	}
}

// benchNetsimBuild builds a sequential and a partitioned network on
// System256.
func benchNetsimBuild(b *testing.B) {
	t := topo.System256()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		netsim.New(t)
		if _, err := netsim.NewPartitioned(t, 1, netsim.DefaultFailover()); err != nil {
			b.Fatal(err)
		}
	}
}

// Microbenchmark sends go between two nodes in different leaf groups,
// far enough apart in simulated time that the network is idle.
const (
	sendSrc, sendDst = 0, 127
	sendBytes        = 192
	sendGap          = 100 * sim.Microsecond
)

// benchPSend runs split-phase sends on an idle partitioned System256.
func benchPSend(b *testing.B) {
	pn, err := netsim.NewPartitioned(topo.System256(), 1, netsim.DefaultFailover())
	if err != nil {
		b.Fatal(err)
	}
	sh := pn.Shard(0)
	done := func(netsim.Delivery) {}
	var sendErr error
	left := b.N
	var fire func()
	fire = func() {
		if sendErr = pn.SendAsync(sendSrc, sendDst, sendBytes, nil, sh.Now(), done); sendErr != nil {
			return
		}
		if left--; left > 0 {
			sh.After(sendGap, fire)
		}
	}
	sh.At(0, fire)
	b.ReportAllocs()
	b.ResetTimer()
	pn.Run()
	if sendErr != nil {
		b.Fatal(sendErr)
	}
}

// benchTSend runs synchronous Transport sends on the same pair.
func benchTSend(b *testing.B) {
	tp, err := netsim.New(topo.System256()).Transport(sendSrc, netsim.DefaultFailover())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tp.Send(sim.Time(i)*sendGap, sendDst, sendBytes); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSendRecv is an 8-byte ping-pong between two ranks on different
// shards of a parallel 2-shard System256 world; one op is a round trip.
func benchSendRecv(b *testing.B) {
	w, err := mpl.NewPWorld(topo.System256(), 2)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 8)
	n := b.N
	b.ResetTimer()
	err = w.Run(func(r *mpl.PRank) error {
		switch r.Rank() {
		case sendSrc:
			for i := 0; i < n; i++ {
				if err := r.Send(sendDst, i, msg); err != nil {
					return err
				}
				if _, err := r.Recv(sendDst, i); err != nil {
					return err
				}
			}
		case sendDst:
			for i := 0; i < n; i++ {
				if _, err := r.Recv(sendSrc, i); err != nil {
					return err
				}
				if err := r.Send(sendSrc, i, msg); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func benchTelemetryObserve(b *testing.B) {
	horizon := 40 * sim.Millisecond
	h := telemetry.NewSampler(horizon, telemetry.AutoWindow(horizon)).TimeHist("bench")
	rng := pseudo(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ObserveTime(sim.Time(rng.next())%horizon, sim.Time(rng.next()%100_000_000))
	}
}

// benchTelemetryMerge folds the sampler of a small default-mix traffic
// run into another, the per-shard fold traffic.Run does.
func benchTelemetryMerge(b *testing.B) {
	eng, err := traffic.New(traffic.DefaultMix(), traffic.Options{Seed: 1, Telemetry: true})
	if err != nil {
		b.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		b.Fatal(err)
	}
	dst := telemetry.NewSampler(res.Horizon, res.Window)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.MergeFrom(res.Telemetry)
	}
}

func latencyHistogram() *metrics.Histogram {
	return metrics.NewRegistry().TimeHistogram("bench", metrics.TimeBuckets(sim.Microsecond, 2, 10))
}

func benchMetricsObserve(b *testing.B) {
	h := latencyHistogram()
	rng := pseudo(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ObserveTime(sim.Time(rng.next() % 600_000_000))
	}
}

func benchMetricsQuantile(b *testing.B) {
	h := latencyHistogram()
	rng := pseudo(1)
	for i := 0; i < 10000; i++ {
		h.ObserveTime(sim.Time(rng.next() % 600_000_000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkI64 = h.Quantile(0.99)
	}
}

// Node-model kernel sizes: the simulator-throughput kernels of the
// root package's bench_test.go.
const (
	matmultN   = 101
	hintSplits = 20000
)

func benchMatMult(b *testing.B) {
	nd := powermanna.NewNode(powermanna.PowerMANNA())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		powermanna.RunMatMult(nd, matmultN, powermanna.Transposed, 1)
	}
}

func benchHint(b *testing.B) {
	nd := powermanna.NewNode(powermanna.PowerMANNA())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		powermanna.RunHINT(nd, powermanna.HintDouble, hintSplits)
	}
}
