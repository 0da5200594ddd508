// Benchmark harness: one testing.B per table and figure of the paper's
// evaluation section, plus the ablations. Each benchmark regenerates its
// table/figure through the experiment runners (quick sweep sizes) and
// reports the headline quantity of that figure as a custom metric, so
// `go test -bench=. -benchmem` doubles as a paper-versus-measured check.
// Full-size sweeps: `go run ./cmd/pmbench -full`.
package powermanna_test

import (
	"fmt"
	"testing"

	"powermanna"
	"powermanna/internal/comm"
	"powermanna/internal/experiments"
	"powermanna/internal/hint"
	"powermanna/internal/machine"
	"powermanna/internal/matmult"
	"powermanna/internal/node"
	"powermanna/internal/topo"
)

var quick = experiments.Options{Quick: true}

func run(b *testing.B, fn experiments.Runner) experiments.Result {
	b.Helper()
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = fn(quick)
	}
	return r
}

func seriesMax(r experiments.Result, name string) float64 {
	if r.Figure == nil {
		return 0
	}
	for _, s := range r.Figure.Series {
		if s.Name != name {
			continue
		}
		max := 0.0
		for _, p := range s.Points {
			if p.Y > max {
				max = p.Y
			}
		}
		return max
	}
	return 0
}

// BenchmarkTable1Configs regenerates Table 1.
func BenchmarkTable1Configs(b *testing.B) {
	r := run(b, experiments.Table1)
	if r.Table == nil || len(r.Table.Rows) < 8 {
		b.Fatal("table1 incomplete")
	}
}

// BenchmarkFig5Topology validates the Figure 5 structure claims.
func BenchmarkFig5Topology(b *testing.B) {
	r := run(b, experiments.Fig5Topology)
	if r.Table == nil {
		b.Fatal("no table")
	}
	s256 := topo.System256()
	max, err := s256.MaxCrossbars()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(max), "max-xbars")
}

// BenchmarkFig6HintDouble regenerates Figure 6a and reports the
// PowerMANNA peak QUIPS.
func BenchmarkFig6HintDouble(b *testing.B) {
	r := run(b, experiments.Fig6a)
	b.ReportMetric(seriesMax(r, "PowerMANNA")/1e6, "pm-peak-MQUIPS")
}

// BenchmarkFig6HintInt regenerates Figure 6b.
func BenchmarkFig6HintInt(b *testing.B) {
	r := run(b, experiments.Fig6b)
	b.ReportMetric(seriesMax(r, "PowerMANNA")/1e6, "pm-peak-MQUIPS")
	b.ReportMetric(seriesMax(r, "SUN-Ultra1")/1e6, "sun-peak-MQUIPS")
}

// BenchmarkFig7MatMultNaive regenerates Figure 7a.
func BenchmarkFig7MatMultNaive(b *testing.B) {
	r := run(b, experiments.Fig7a)
	b.ReportMetric(seriesMax(r, "PowerMANNA"), "pm-peak-MFLOPS")
	b.ReportMetric(seriesMax(r, "PC-PII-180"), "pc-peak-MFLOPS")
}

// BenchmarkFig7MatMultTransposed regenerates Figure 7b.
func BenchmarkFig7MatMultTransposed(b *testing.B) {
	r := run(b, experiments.Fig7b)
	b.ReportMetric(seriesMax(r, "PowerMANNA"), "pm-peak-MFLOPS")
}

// BenchmarkFig8SpeedupNaive regenerates Figure 8a and reports the
// PowerMANNA dual-processor speedup (paper: exactly 2).
func BenchmarkFig8SpeedupNaive(b *testing.B) {
	r := run(b, experiments.Fig8a)
	b.ReportMetric(seriesMax(r, "PowerMANNA"), "pm-speedup")
	b.ReportMetric(seriesMax(r, "PC-PII-180"), "pc-speedup")
}

// BenchmarkFig8SpeedupTransposed regenerates Figure 8b.
func BenchmarkFig8SpeedupTransposed(b *testing.B) {
	r := run(b, experiments.Fig8b)
	b.ReportMetric(seriesMax(r, "PowerMANNA"), "pm-speedup")
}

// BenchmarkFig9Latency regenerates Figure 9 and reports the 8-byte
// one-way latencies (paper: 2.75 / 6.4 / 9.2 µs).
func BenchmarkFig9Latency(b *testing.B) {
	run(b, experiments.Fig9)
	b.ReportMetric(comm.NewPowerMANNA().OneWayLatency(8).Micros(), "pm-8B-us")
	b.ReportMetric(comm.BIP().OneWayLatency(8).Micros(), "bip-8B-us")
	b.ReportMetric(comm.FM().OneWayLatency(8).Micros(), "fm-8B-us")
}

// BenchmarkFig10Gap regenerates Figure 10.
func BenchmarkFig10Gap(b *testing.B) {
	run(b, experiments.Fig10)
	b.ReportMetric(comm.NewPowerMANNA().Gap(8).Micros(), "pm-gap-8B-us")
}

// BenchmarkFig11UniBandwidth regenerates Figure 11 (paper: PowerMANNA
// saturates at 60 MB/s; BIP ~126 MB/s).
func BenchmarkFig11UniBandwidth(b *testing.B) {
	run(b, experiments.Fig11)
	b.ReportMetric(comm.NewPowerMANNA().UniBandwidth(256<<10)/1e6, "pm-MBps")
	b.ReportMetric(comm.BIP().UniBandwidth(256<<10)/1e6, "bip-MBps")
}

// BenchmarkFig12BiBandwidth regenerates Figure 12 (paper: below the
// expected 2× because of the small FIFOs).
func BenchmarkFig12BiBandwidth(b *testing.B) {
	run(b, experiments.Fig12)
	pm := comm.NewPowerMANNA()
	b.ReportMetric(pm.BiBandwidth(256<<10)/1e6, "pm-bi-MBps")
	b.ReportMetric(2*pm.UniBandwidth(256<<10)/1e6, "pm-2xuni-MBps")
}

// BenchmarkAblationNodeScalability regenerates the Section 2 claim.
func BenchmarkAblationNodeScalability(b *testing.B) {
	r := run(b, experiments.NodeScalability)
	if r.Figure != nil && len(r.Figure.Series) > 0 {
		pts := r.Figure.Series[0].Points
		b.ReportMetric(pts[3].Y, "speedup-4cpu")
		b.ReportMetric(pts[5].Y, "speedup-6cpu")
	}
}

// BenchmarkAblationFIFOSize regenerates the FIFO-depth sweep.
func BenchmarkAblationFIFOSize(b *testing.B) {
	r := run(b, experiments.FIFOSweep)
	if r.Figure != nil {
		pts := r.Figure.Series[0].Points
		b.ReportMetric(pts[1].Y, "bi-4line-MBps")
		b.ReportMetric(pts[len(pts)-1].Y, "bi-64line-MBps")
	}
}

// BenchmarkAblationDualLink regenerates the duplicated-network sweep.
func BenchmarkAblationDualLink(b *testing.B) {
	run(b, experiments.DualLink)
	p := comm.DefaultPMParams()
	p.Links = 2
	b.ReportMetric(comm.NewPowerMANNAWith(p).UniBandwidth(256<<10)/1e6, "dual-MBps")
}

// BenchmarkAblationCrossbar measures raw crossbar circuit setup
// (Section 3.1: 0.2 µs collision-free through-routing).
func BenchmarkAblationCrossbar(b *testing.B) {
	net := powermanna.NewNetwork(powermanna.Cluster8())
	path, err := net.Topology().Route(0, 1, powermanna.NetworkA)
	if err != nil {
		b.Fatal(err)
	}
	var at powermanna.Time
	for i := 0; i < b.N; i++ {
		tr, err := net.Send(at, path, 8)
		if err != nil {
			b.Fatal(err)
		}
		at = tr.LastByte
	}
	b.ReportMetric(0.2, "route-setup-us")
}

// BenchmarkKernelMatMult measures raw simulator throughput: simulated
// multiply-accumulate iterations per wall second.
func BenchmarkKernelMatMult(b *testing.B) {
	nd := node.New(machine.PowerMANNA())
	for i := 0; i < b.N; i++ {
		matmult.Run(nd, 101, matmult.Transposed, 1)
	}
	b.ReportMetric(float64(101*101*101*b.N)/b.Elapsed().Seconds()/1e6, "Msim-iters/s")
}

// BenchmarkKernelHint measures HINT simulation throughput.
func BenchmarkKernelHint(b *testing.B) {
	nd := node.New(machine.PowerMANNA())
	for i := 0; i < b.N; i++ {
		hint.Run(nd, hint.Double, 20000)
	}
	b.ReportMetric(float64(20000*b.N)/b.Elapsed().Seconds()/1e3, "ksplits/s")
}

// BenchmarkAblationDispatcher regenerates the protocol-engine sweep.
func BenchmarkAblationDispatcher(b *testing.B) {
	r := run(b, experiments.DispatcherAblation)
	if r.Figure != nil {
		ooo := r.Figure.Series[0].Points
		b.ReportMetric(ooo[0].Y, "cyc/txn-depth1")
		b.ReportMetric(ooo[2].Y, "cyc/txn-depth4")
	}
}

// BenchmarkAblationSmartNI regenerates the interface latency budget.
func BenchmarkAblationSmartNI(b *testing.B) {
	run(b, experiments.SmartNI)
	pm := comm.NewPowerMANNA().OneWayLatency(8).Micros()
	b.ReportMetric(pm, "pm-8B-us")
}

// BenchmarkAblationBlocking regenerates the mesh-vs-hierarchy traffic
// comparison (the Section 3 motivation).
func BenchmarkAblationBlocking(b *testing.B) {
	r := run(b, experiments.BlockingBehavior)
	for _, n := range r.Notes {
		var ratio float64
		if _, err := fmt.Sscanf(n, "mesh mean latency %fx", &ratio); err == nil {
			b.ReportMetric(ratio, "mesh/hier-latency")
		}
	}
}
