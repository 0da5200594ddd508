package heat

import (
	"math"
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

func TestParallelMatchesSerialExactly(t *testing.T) {
	cfg := DefaultConfig(333, 120) // odd size: uneven blocks
	want, err := RunSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, build := range []func() *topo.Topology{topo.Cluster8, topo.System256} {
		w := mpl.NewWorld(build())
		if build().Nodes() == 128 && cfg.Cells < 3*128 {
			cfg.Cells = 512
			want, _ = RunSerial(cfg)
		}
		res, err := Run(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
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
	w1 := mpl.NewWorld(topo.New("single", 1))
	r1, err := Run(w1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w8 := mpl.NewWorld(topo.Cluster8())
	r8, err := Run(w8, cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	w8 := mpl.NewWorld(topo.Cluster8())
	r8, err := Run(w8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w128 := mpl.NewWorld(topo.System256())
	r128, err := Run(w128, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gain := float64(r8.Makespan) / float64(r128.Makespan)
	if gain > 4 {
		t.Errorf("128 vs 8 ranks gained %.2fx on a comm-bound domain, expected rollover", gain)
	}
}

func TestRunErrors(t *testing.T) {
	w := mpl.NewWorld(topo.Cluster8())
	bad := DefaultConfig(10, 5) // 10 cells over 8 ranks: blocks too small
	if _, err := Run(w, bad); err == nil {
		t.Error("undersized domain accepted")
	}
	broken := DefaultConfig(100, 5)
	broken.Alpha = 0.9
	if _, err := Run(w, broken); err == nil {
		t.Error("unstable alpha accepted")
	}
	if _, err := RunSerial(broken); err == nil {
		t.Error("unstable alpha accepted by serial")
	}
}

func TestDeterministicMakespan(t *testing.T) {
	run := func() sim.Time {
		w := mpl.NewWorld(topo.Cluster8())
		r, err := Run(w, DefaultConfig(1024, 30))
		if err != nil {
			t.Fatal(err)
		}
		return r.Makespan
	}
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
