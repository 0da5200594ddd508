package hint

import (
	"math"
	"testing"
	"testing/quick"

	"powermanna/internal/machine"
	"powermanna/internal/node"
)

// trueIntegral is ∫₀¹ (1−x)/(1+x) dx = 2·ln2 − 1.
var trueIntegral = 2*math.Log(2) - 1

func TestDataTypeString(t *testing.T) {
	if Double.String() != "DOUBLE" || Int.String() != "INT" {
		t.Error("DataType.String wrong")
	}
}

func TestIntegrandEndpoints(t *testing.T) {
	if f(0) != 1 || f(1) != 0 {
		t.Error("f endpoints wrong")
	}
	if fFixed(0) != fixedOne {
		t.Errorf("fFixed(0) = %d, want %d", fFixed(0), fixedOne)
	}
	if fFixed(fixedOne) != 0 {
		t.Errorf("fFixed(ONE) = %d, want 0", fFixed(fixedOne))
	}
}

// Property: fFixed matches the float integrand within Q32 precision.
func TestFixedIntegrandMatchesFloat(t *testing.T) {
	fn := func(raw uint32) bool {
		x := int64(raw) << 0 // x in [0, 2^32) ⊂ [0, ONE]
		got := float64(fFixed(x)) / float64(fixedOne)
		want := f(float64(x) / float64(fixedOne))
		return math.Abs(got-want) < 1e-6
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

// Property: mulFixed is (a·b)>>32 within one ULP, including signs.
func TestMulFixed(t *testing.T) {
	fn := func(a, b int32) bool {
		got := mulFixed(int64(a), int64(b))
		want := int64(a) * int64(b) >> 32
		return got-want <= 1 && want-got <= 1
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestBoundsConvergeOnTrueIntegral(t *testing.T) {
	st := newHintState(1)
	var touched []int32
	for i := 0; i < 4000; i++ {
		touched = st.split(touched[:0])
	}
	if st.lower > trueIntegral || st.upper < trueIntegral {
		t.Errorf("bounds [%.8f, %.8f] exclude true integral %.8f", st.lower, st.upper, trueIntegral)
	}
	if gap := st.upper - st.lower; gap > 1e-3 {
		t.Errorf("gap after 4000 splits = %g, want < 1e-3", gap)
	}
	// Fixed-point bounds agree with the float bounds.
	il := float64(st.ilower) / float64(fixedOne)
	iu := float64(st.iupper) / float64(fixedOne)
	if math.Abs(il-st.lower) > 1e-4 || math.Abs(iu-st.upper) > 1e-4 {
		t.Errorf("fixed bounds [%.8f, %.8f] vs float [%.8f, %.8f]", il, iu, st.lower, st.upper)
	}
}

func TestQualityIncreasesMonotonically(t *testing.T) {
	st := newHintState(1)
	var touched []int32
	prev := st.quality()
	for i := 0; i < 1000; i++ {
		touched = st.split(touched[:0])
		q := st.quality()
		if q < prev-1e-9 {
			t.Fatalf("quality decreased at split %d: %g -> %g", i, prev, q)
		}
		prev = q
	}
}

// Heap invariant: the root always carries the maximum removable error.
func TestHeapInvariant(t *testing.T) {
	st := newHintState(1)
	var touched []int32
	for i := 0; i < 500; i++ {
		touched = st.split(touched[:0])
		for j := 1; j < len(st.heap); j++ {
			p := (j - 1) / 2
			if st.heap[p].err < st.heap[j].err {
				t.Fatalf("heap violated at %d after split %d", j, i)
			}
		}
	}
}

func TestRunProducesDecreasingTailQUIPS(t *testing.T) {
	nd := node.New(machine.PowerMANNA())
	r := Run(nd, Double, 60000)
	if len(r.Points) < 10 {
		t.Fatalf("only %d samples", len(r.Points))
	}
	if r.PeakQUIPS <= 0 {
		t.Fatal("no peak QUIPS")
	}
	// The curve must end below its peak: the working set (60000 × 64 B ≈
	// 3.8 MB) has outgrown the 2 MB L2 by the end.
	last := r.Points[len(r.Points)-1].QUIPS
	if last >= r.PeakQUIPS {
		t.Errorf("tail QUIPS %.3g not below peak %.3g (memory-hierarchy drop missing)", last, r.PeakQUIPS)
	}
	// Bounds still functional.
	if r.Lower > trueIntegral || r.Upper < trueIntegral {
		t.Errorf("bounds [%.8f, %.8f] exclude %.8f", r.Lower, r.Upper, trueIntegral)
	}
}

func TestRunDeterministic(t *testing.T) {
	nd := node.New(machine.PowerMANNA())
	a := Run(nd, Int, 5000)
	b := Run(nd, Int, 5000)
	if a.PeakQUIPS != b.PeakQUIPS || len(a.Points) != len(b.Points) {
		t.Error("non-deterministic run")
	}
}

// INT runs must also work on every Table 1 machine and produce positive
// QUIPS, with the SUN trailing on INT (the paper's Figure 6b finding).
func TestIntVariantMachineOrdering(t *testing.T) {
	peak := func(cfg node.Config) float64 {
		nd := node.New(cfg)
		return Run(nd, Int, 20000).PeakQUIPS
	}
	pm := peak(machine.PowerMANNA())
	sun := peak(machine.SunUltra())
	pc := peak(machine.PentiumII(180))
	if pm <= 0 || sun <= 0 || pc <= 0 {
		t.Fatalf("non-positive peaks: pm=%g sun=%g pc=%g", pm, sun, pc)
	}
	if sun >= pm || sun >= pc {
		t.Errorf("SUN INT peak %.3g should trail PowerMANNA %.3g and PC %.3g", sun, pm, pc)
	}
}

func TestResultString(t *testing.T) {
	nd := node.New(machine.PowerMANNA())
	r := Run(nd, Double, 1000)
	if r.String() == "" {
		t.Error("empty String")
	}
}

// Run's heap capacity covers its whole loop: the interval array never
// moves, so it is allocated once.
func TestRunLoopKeepsPreallocatedHeap(t *testing.T) {
	const maxIntervals = 1000
	st := newHintState(maxIntervals + 1)
	first := &st.heap[0]
	var touched []int32
	for len(st.heap) < maxIntervals {
		touched = st.split(touched[:0])
		if &st.heap[0] != first {
			t.Fatalf("heap reallocated at %d intervals", len(st.heap))
		}
	}
}
