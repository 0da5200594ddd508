// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) plus the ablations its text motivates. Each
// experiment returns a Result with the rendered table or figure, the
// paper's qualitative expectation, and derived observations so the
// harness (cmd/pmbench, bench_test.go, EXPERIMENTS.md) can compare shape
// against the paper mechanically.
package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"powermanna/internal/psim"
	"powermanna/internal/sim"
	"powermanna/internal/stats"
)

// DefaultSeed seeds the deterministic traffic streams of the stochastic
// experiments. The zero-value Options reproduces the published tables.
const DefaultSeed = 1999

// Options tunes experiment sweep sizes.
type Options struct {
	// Quick shrinks sweeps to seconds for tests and smoke runs; the full
	// sweeps reproduce the paper's plotted ranges.
	Quick bool
	// Seed drives every random traffic stream (the blocking experiment's
	// permutations). Zero means DefaultSeed: results are always a pure
	// function of (experiment, Options) — the determinism contract
	// forbids the global math/rand source.
	Seed int64
	// Engine selects the event engine (psim.Seq or psim.Par) for the
	// experiments built from independent rows: under psim.Par the
	// per-machine series of fig6a, fig6b, fig7a, fig7b, fig8a and fig8b,
	// the CPU counts of nodescale and the fault-count rows of faultsweep
	// each run on their own psim shard, concurrently. Every other
	// experiment ignores it. Results are byte-identical either way.
	Engine psim.Kind
}

// rows runs the n independent series of one experiment through
// psim.RunRows on opt.Engine and returns their results in row order.
// Series i runs as its row's only event, so it must build everything
// it touches — its node — itself; its result lands in its own slot and
// is read only after the join.
func rows[T any](opt Options, n int, series func(i int) T) []T {
	out := make([]T, n)
	psim.RunRows(opt.Engine, n, func(i int, e sim.Engine) {
		e.At(0, func() { out[i] = series(i) })
	})
	return out
}

// rng builds a fresh explicit generator from the configured seed. Each
// call restarts the stream, so two consumers seeded alike see identical
// traffic.
func (o Options) rng() *rand.Rand {
	seed := o.Seed
	if seed == 0 {
		seed = DefaultSeed
	}
	return rand.New(rand.NewSource(seed))
}

// Result is one regenerated table or figure.
type Result struct {
	// ID is the experiment key: "table1", "fig6a", ... "duallink".
	ID string
	// Description says what the experiment measures.
	Description string
	// Expected states the paper's qualitative finding this run should
	// reproduce.
	Expected string
	// Figure holds curve output (nil for tables).
	Figure *stats.Figure
	// Table holds tabular output (nil for figures).
	Table *stats.Table
	// Notes are derived observations (speedups, ratios, crossovers).
	Notes []string
}

// Render produces the experiment's full text block.
func (r Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n", r.ID, r.Description)
	fmt.Fprintf(&b, "Paper: %s\n\n", r.Expected)
	if r.Table != nil {
		b.WriteString(r.Table.Render())
	}
	if r.Figure != nil {
		b.WriteString(r.Figure.Render())
		b.WriteString(r.Figure.Plot(72, 18))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner produces one experiment.
type Runner func(Options) Result

// registry maps experiment IDs to runners, in presentation order.
var registry = []struct {
	id  string
	fn  Runner
	doc string
}{
	{"table1", Table1, "configuration of the test systems"},
	{"fig5", Fig5Topology, "topology properties of the cluster and the 256-processor system"},
	{"fig6a", Fig6a, "HINT DOUBLE, QUIPS along time"},
	{"fig6b", Fig6b, "HINT INT, QUIPS along time"},
	{"fig7a", Fig7a, "MatMult naive, single processor, MFLOPS along N"},
	{"fig7b", Fig7b, "MatMult transposed, single processor, MFLOPS along N"},
	{"fig8a", Fig8a, "MatMult naive, dual-processor speedup"},
	{"fig8b", Fig8b, "MatMult transposed, dual-processor speedup"},
	{"fig9", Fig9, "one-way latency along message size"},
	{"fig10", Fig10, "message-sending time at saturation (gap)"},
	{"fig11", Fig11, "unidirectional bandwidth"},
	{"fig12", Fig12, "simultaneous bidirectional bandwidth"},
	{"nodescale", NodeScalability, "node scalability 1..6 CPUs (Section 2 claim)"},
	{"blocking", BlockingBehavior, "crossbar hierarchy vs mesh blocking behavior (Section 3 claim)"},
	{"dispatcher", DispatcherAblation, "dispatcher pipelining / out-of-order completion ablation (Section 2)"},
	{"smartni", SmartNI, "CPU-driven interface vs PCI NIC latency budget (Sections 3.3, 6)"},
	{"fifosweep", FIFOSweep, "bidirectional bandwidth vs link-interface FIFO size"},
	{"duallink", DualLink, "single vs dual (duplicated) network links"},
	{"faultsweep", FaultSweep, "duplicated-network degradation under plane-A link cuts (Section 4)"},
}

// IDs lists all experiment keys in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// ByID finds an experiment runner.
func ByID(id string) (Runner, bool) {
	for _, e := range registry {
		if e.id == id {
			return e.fn, true
		}
	}
	return nil, false
}

// All runs every experiment in order.
func All(opt Options) []Result {
	out := make([]Result, 0, len(registry))
	for _, e := range registry {
		out = append(out, e.fn(opt))
	}
	return out
}

// helper: sorted keys of a float map (deterministic notes).
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
