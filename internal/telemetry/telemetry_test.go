package telemetry

import (
	"fmt"
	"strings"
	"testing"

	"powermanna/internal/sim"
)

func TestAutoWindow(t *testing.T) {
	cases := []struct {
		horizon sim.Time
		want    sim.Time
	}{
		// 800us / 32 = 25us exactly.
		{800 * sim.Microsecond, 25 * sim.Microsecond},
		// 200us / 32 = 6.25us, rounds up to a whole microsecond.
		{200 * sim.Microsecond, 7 * sim.Microsecond},
		// Degenerate horizons still produce a 1us grid.
		{0, sim.Microsecond},
		{300 * sim.Nanosecond, sim.Microsecond},
	}
	for _, c := range cases {
		if got := AutoWindow(c.horizon); got != c.want {
			t.Errorf("AutoWindow(%v) = %v, want %v", c.horizon, got, c.want)
		}
	}
}

func TestWindowIndexing(t *testing.T) {
	// 100us horizon, 25us windows: 4 regular windows + tail.
	s := NewSampler(100*sim.Microsecond, 25*sim.Microsecond)
	if s.Windows() != 4 {
		t.Fatalf("Windows() = %d, want 4", s.Windows())
	}
	c := s.Series("x")
	c.Inc(0)                      // window 0 (inclusive lower edge)
	c.Inc(25*sim.Microsecond - 1) // still window 0
	c.Inc(25 * sim.Microsecond)   // window 1 (exclusive upper edge)
	c.Inc(99 * sim.Microsecond)   // window 3
	c.Inc(100 * sim.Microsecond)  // tail (at horizon)
	c.Inc(5000 * sim.Microsecond) // tail (far past horizon)
	c.Inc(-sim.Microsecond)       // clamps into window 0
	for i, want := range []int64{3, 1, 0, 1, 2} {
		if got := c.Cell(i); got != want {
			t.Errorf("cell %d = %d, want %d", i, got, want)
		}
	}
}

func TestHistCells(t *testing.T) {
	s := NewSampler(50*sim.Microsecond, 25*sim.Microsecond)
	h := s.TimeHist("lat")
	h.Observe(0, 10)
	h.Observe(sim.Microsecond, 4)
	h.ObserveTime(2*sim.Microsecond, 7)
	c := h.Cell(0)
	if c.Count != 3 || c.Sum != 21 || c.Min != 4 || c.Max != 10 || c.Mean() != 7 {
		t.Errorf("hist cell 0 = %+v, want count=3 sum=21 min=4 max=10 mean=7", c)
	}
	if (HistCell{}).Mean() != 0 {
		t.Error("empty cell mean should be 0")
	}
}

func TestNilSamplerNoOps(t *testing.T) {
	var s *Sampler
	if s.Window() != 0 || s.Windows() != 0 || s.WindowLabel(0) != "" {
		t.Error("nil sampler accessors should be zero-valued")
	}
	// Nil instruments from a nil sampler must all no-op.
	s.Series("x").Add(0, 1)
	s.Series("x").Inc(0)
	s.TimeHist("x").Observe(0, 1)
	s.TimeHist("x").ObserveTime(0, sim.Microsecond)
	s.MergeFrom(NewSampler(sim.Microsecond, 0))
	NewSampler(sim.Microsecond, 0).MergeFrom(s)
	if s.Series("x").Cell(0) != 0 {
		t.Error("nil series should read zero")
	}
	if (s.TimeHist("x").Cell(0) != HistCell{}) {
		t.Error("nil hist should read zero cells")
	}
}

// dump renders every cell of the instruments TestMergeCommutes creates.
func dump(s *Sampler) string {
	var b strings.Builder
	for i := 0; i <= s.Windows(); i++ {
		fmt.Fprintf(&b, "%s sent=%d viol=%d lat=%+v\n", s.WindowLabel(i),
			s.Series("sent").Cell(i), s.Series("viol").Cell(i), s.TimeHist("lat").Cell(i))
	}
	return b.String()
}

// TestMergeCommutes folds three shard samplers in both orders and
// demands identical cells — the property that makes the rendered
// series independent of shard count and merge order.
func TestMergeCommutes(t *testing.T) {
	build := func(obs ...func(*Sampler)) *Sampler {
		s := NewSampler(100*sim.Microsecond, 25*sim.Microsecond)
		for _, f := range obs {
			f(s)
		}
		return s
	}
	a := func(s *Sampler) {
		s.Series("sent").Add(10*sim.Microsecond, 5)
		s.TimeHist("lat").ObserveTime(40*sim.Microsecond, 3*sim.Microsecond)
	}
	b := func(s *Sampler) {
		s.Series("sent").Add(10*sim.Microsecond, 7)
		s.Series("viol").Inc(60 * sim.Microsecond)
		s.TimeHist("lat").ObserveTime(40*sim.Microsecond, sim.Microsecond)
	}
	c := func(s *Sampler) {
		s.TimeHist("lat").ObserveTime(140*sim.Microsecond, 9*sim.Microsecond)
	}

	fold := func(parts ...func(*Sampler)) string {
		dst := NewSampler(100*sim.Microsecond, 25*sim.Microsecond)
		for _, p := range parts {
			dst.MergeFrom(build(p))
		}
		return dump(dst)
	}
	seq := dump(build(a, b, c))
	if got := fold(a, b, c); got != seq {
		t.Errorf("fold(a,b,c) != sequential:\n%s\nvs\n%s", got, seq)
	}
	if got := fold(c, b, a); got != seq {
		t.Errorf("fold(c,b,a) != sequential:\n%s\nvs\n%s", got, seq)
	}
}

func TestMergeGridMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging mismatched grids should panic")
		}
	}()
	NewSampler(100*sim.Microsecond, 25*sim.Microsecond).
		MergeFrom(NewSampler(100*sim.Microsecond, 50*sim.Microsecond))
}

// TestZeroAllocObserve pins the window-roll hot path — counter add and
// histogram observe — at zero allocations per operation,
// the contract the //pmlint:hotpath annotations declare.
func TestZeroAllocObserve(t *testing.T) {
	s := NewSampler(800*sim.Microsecond, 0)
	c := s.Series("sent")
	h := s.TimeHist("lat")
	at := sim.Time(0)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(at, 3)
		c.Inc(at + 40*sim.Microsecond)
		h.Observe(at, int64(at%977))
		h.ObserveTime(at, sim.Microsecond+at%1000)
		at += 1337 * sim.Nanosecond
	})
	if allocs != 0 {
		t.Fatalf("window-roll path allocates: %v allocs/op, want 0", allocs)
	}
}
