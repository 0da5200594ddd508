package heat

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"powermanna/internal/mpl"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(1024, 100).Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	bad := []Config{
		{Cells: 2, Steps: 1, Alpha: 0.25, ComputeCyclesPerCell: 1},
		{Cells: 100, Steps: 0, Alpha: 0.25, ComputeCyclesPerCell: 1},
		{Cells: 100, Steps: 1, Alpha: 0.6, ComputeCyclesPerCell: 1},
		{Cells: 100, Steps: 1, Alpha: 0.25, ComputeCyclesPerCell: 0},
		{Cells: 100, Steps: 1, Alpha: 0.25, ComputeCyclesPerCell: 1, ReduceEvery: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSerialConservesAndDiffuses(t *testing.T) {
	cfg := DefaultConfig(300, 500)
	field, err := RunSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Heat diffuses outward: the spike's peak decays, the edges warm up
	// (but stay below the initial spike), and no cell goes negative.
	var peak float64
	for _, v := range field {
		if v < -1e-9 {
			t.Fatalf("negative temperature %g", v)
		}
		if v > peak {
			peak = v
		}
	}
	if peak >= 100 || peak < 10 {
		t.Errorf("peak after diffusion = %g, want decayed below 100", peak)
	}
	if field[10] <= 0 {
		t.Error("heat did not reach the near boundary region")
	}
}

// runPart solves cfg on a fresh 1-shard world over top.
func runPart(t *testing.T, top *topo.Topology, cfg Config) Result {
	t.Helper()
	w, err := mpl.NewPWorld(top, 1)
	if err != nil {
		t.Fatalf("NewPWorld(%s): %v", top.Name(), err)
	}
	res, err := RunPart(w, cfg)
	if err != nil {
		t.Fatalf("%s: %v", top.Name(), err)
	}
	return res
}

// TestParallelMatchesSerialExactly checks bit-identical fields for an
// odd domain split into uneven blocks on Cluster8 and for the 128-rank
// machine.
func TestParallelMatchesSerialExactly(t *testing.T) {
	for _, c := range []struct {
		top   *topo.Topology
		cells int
	}{{topo.Cluster8(), 333}, {topo.System256(), 512}} {
		cfg := DefaultConfig(c.cells, 120)
		want, err := RunSerial(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := runPart(t, c.top, cfg)
		for i := range want {
			if res.Field[i] != want[i] {
				t.Fatalf("%d ranks: cell %d = %g, want %g (must be bit-identical)",
					res.Ranks, i, res.Field[i], want[i])
			}
		}
	}
}

func TestStrongScaling(t *testing.T) {
	cfg := DefaultConfig(32768, 60)
	cfg.ReduceEvery = 0
	r1 := runPart(t, topo.New("single", 1), cfg)
	r8 := runPart(t, topo.Cluster8(), cfg)
	speedup := float64(r1.Makespan) / float64(r8.Makespan)
	if speedup < 3 {
		t.Errorf("8-rank speedup = %.2f, want > 3 (compute-bound domain)", speedup)
	}
	if r8.Messages == 0 {
		t.Error("no halo messages")
	}
	// One-rank runs exchange nothing.
	if r1.Messages != 0 {
		t.Errorf("single rank sent %d messages", r1.Messages)
	}
}

func TestScalingRollsOverWhenCommBound(t *testing.T) {
	// A tiny domain across 128 ranks: halo latency dwarfs the per-rank
	// compute, so 128 ranks must NOT be ~16x faster than 8.
	cfg := DefaultConfig(512, 40)
	cfg.ReduceEvery = 0
	r8 := runPart(t, topo.Cluster8(), cfg)
	r128 := runPart(t, topo.System256(), cfg)
	gain := float64(r8.Makespan) / float64(r128.Makespan)
	if gain > 4 {
		t.Errorf("128 vs 8 ranks gained %.2fx on a comm-bound domain, expected rollover", gain)
	}
}

func TestRunErrors(t *testing.T) {
	w, err := mpl.NewPWorld(topo.Cluster8(), 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig(10, 5) // 10 cells over 8 ranks: blocks too small
	if _, err := RunPart(w, bad); err == nil {
		t.Error("undersized domain accepted")
	}
	broken := DefaultConfig(100, 5)
	broken.Alpha = 0.9
	if _, err := RunPart(w, broken); err == nil {
		t.Error("unstable alpha accepted")
	}
	if _, err := RunSerial(broken); err == nil {
		t.Error("unstable alpha accepted by serial")
	}
}

func TestDeterministicMakespan(t *testing.T) {
	run := func() sim.Time { return runPart(t, topo.Cluster8(), DefaultConfig(1024, 30)).Makespan }
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic: %v vs %v", a, b)
	}
}

func TestEnergyDecays(t *testing.T) {
	// Total squared field (the residual the solver reduces) decreases
	// monotonically under diffusion with fixed-zero boundaries.
	cfg := DefaultConfig(200, 1)
	prev := math.Inf(1)
	for steps := 1; steps <= 256; steps *= 4 {
		cfg.Steps = steps
		f, err := RunSerial(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var e float64
		for _, v := range f {
			e += v * v
		}
		if e > prev+1e-9 {
			t.Errorf("energy rose: %g after %d steps (prev %g)", e, steps, prev)
		}
		prev = e
	}
}

// TestInitialBlockMatchesField checks that a rank's block of the starting
// profile equals the same cells of the whole field, for block edges on
// and off the spike's boundaries.
func TestInitialBlockMatchesField(t *testing.T) {
	const cells = 100
	field := initial(cells)
	for _, b := range [][2]int{{0, 10}, {30, 40}, {33, 34}, {60, 70}, {66, 67}, {90, 100}, {0, cells}} {
		lo, hi := b[0], b[1]
		got := make([]float64, hi-lo)
		for i := range got {
			got[i] = -1 // every cell must be written
		}
		initialBlock(got, cells, lo)
		for i, v := range got {
			if v != field[lo+i] {
				t.Errorf("block [%d, %d): cell %d = %v, field has %v", lo, hi, lo+i, v, field[lo+i])
			}
		}
	}
}

// TestPartMatchesSerialExactly pins the SPMD solver's arithmetic: the
// field computed over the partitioned world is bit-identical to the
// serial reference, at every aligned shard count.
func TestPartMatchesSerialExactly(t *testing.T) {
	top := topo.System256()
	cfg := DefaultConfig(24*top.Nodes(), 60)
	want, err := RunSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		w, err := mpl.NewPWorld(top, shards)
		if err != nil {
			t.Fatalf("NewPWorld(%d): %v", shards, err)
		}
		res, err := RunPart(w, cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for i := range want {
			if res.Field[i] != want[i] {
				t.Fatalf("shards=%d: cell %d = %g, want %g", shards, i, res.Field[i], want[i])
			}
		}
		if res.Makespan <= 0 || res.Messages == 0 {
			t.Fatalf("shards=%d: trivial result %+v", shards, res)
		}
	}
}

// TestPartDeterministicAcrossShards pins the timing side: identical
// makespan and traffic at every aligned shard count, serial or
// parallel dispatch.
func TestPartDeterministicAcrossShards(t *testing.T) {
	top := topo.System256()
	cfg := DefaultConfig(8*top.Nodes(), 12)
	cfg.ReduceEvery = 6
	run := func(shards int, serial bool) Result {
		w, err := mpl.NewPWorld(top, shards)
		if err != nil {
			t.Fatalf("NewPWorld(%d): %v", shards, err)
		}
		w.PartNetwork().SetSerial(serial)
		res, err := RunPart(w, cfg)
		if err != nil {
			t.Fatalf("shards=%d serial=%v: %v", shards, serial, err)
		}
		return res
	}
	ref := run(1, false)
	for _, shards := range []int{2, 8, 16} {
		got := run(shards, false)
		if got.Makespan != ref.Makespan || got.Messages != ref.Messages || got.MsgBytes != ref.MsgBytes {
			t.Errorf("shards=%d: makespan %v msgs %d bytes %d, want %v %d %d",
				shards, got.Makespan, got.Messages, got.MsgBytes, ref.Makespan, ref.Messages, ref.MsgBytes)
		}
	}
	if got := run(4, true); got.Makespan != ref.Makespan {
		t.Errorf("serial dispatch: makespan %v, want %v", got.Makespan, ref.Makespan)
	}
}

// TestPartCrossWorkerResume runs the quick System256 solve under
// parallel dispatch at GOMAXPROCS 1 and 2, where each rank coroutine is
// resumed by whichever goroutine runs its shard's round. Every run must
// equal the 1-shard serial run: field, makespan, messages and engine
// rounds.
func TestPartCrossWorkerResume(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	top := topo.System256()
	cfg := DefaultConfig(24*top.Nodes(), 30)
	run := func(shards int, serial bool) (Result, uint64) {
		w, err := mpl.NewPWorld(top, shards)
		if err != nil {
			t.Fatalf("NewPWorld(%d): %v", shards, err)
		}
		w.PartNetwork().SetSerial(serial)
		res, err := RunPart(w, cfg)
		if err != nil {
			t.Fatalf("shards=%d serial=%v: %v", shards, serial, err)
		}
		return res, w.PartNetwork().Engine().Rounds()
	}
	ref, refRounds := run(1, true)
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{1, 2, 4} {
			got, rounds := run(shards, false)
			for i := range ref.Field {
				if got.Field[i] != ref.Field[i] {
					t.Fatalf("GOMAXPROCS %d shards=%d: cell %d = %g, want %g", procs, shards, i, got.Field[i], ref.Field[i])
				}
			}
			if got.Makespan != ref.Makespan || got.Messages != ref.Messages || rounds != refRounds {
				t.Errorf("GOMAXPROCS %d shards=%d: makespan %v msgs %d rounds %d, want %v %d %d",
					procs, shards, got.Makespan, got.Messages, rounds, ref.Makespan, ref.Messages, refRounds)
			}
		}
	}
}

// BenchmarkHeatSystem256 sweeps the partitioned heat solver across
// shard counts on the full machine: engine=seq is the single-heap
// serial-dispatch baseline, engine=par fans the shard heaps across
// worker goroutines. Wall-clock at shards=4 under -cpu 4 is the
// headline: the same byte-identical event program, walked in parallel.
func BenchmarkHeatSystem256(b *testing.B) {
	top := topo.System256()
	cfg := DefaultConfig(24*top.Nodes(), 30)
	run := func(b *testing.B, shards int, serial bool) {
		for i := 0; i < b.N; i++ {
			w, err := mpl.NewPWorld(top, shards)
			if err != nil {
				b.Fatal(err)
			}
			w.PartNetwork().SetSerial(serial)
			if _, err := RunPart(w, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("engine=seq/shards=1", func(b *testing.B) { run(b, 1, true) })
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		b.Run(fmt.Sprintf("engine=par/shards=%d", shards), func(b *testing.B) { run(b, shards, false) })
	}
}
