package metrics

import (
	"strings"
	"testing"

	"powermanna/internal/sim"
)

// TestNilRegistryNoOpsAndAllocatesNothing pins the "zero overhead when
// off" contract: a nil registry hands out nil instruments, and every
// instrument method no-ops without allocating — the cost an always-wired
// call site pays when metrics are off.
func TestNilRegistryNoOpsAndAllocatesNothing(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []int64{1, 2})
	th := r.TimeHistogram("th", TimeBuckets(sim.Microsecond, 2, 4))
	allocs := testing.AllocsPerRun(200, func() {
		c.Inc()
		c.Add(5)
		g.Set(3)
		g.Max(9)
		h.Observe(1)
		th.ObserveTime(2 * sim.Microsecond)
	})
	if allocs != 0 {
		t.Errorf("nil instruments allocated %.1f times per run, want 0", allocs)
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments hold state")
	}
	if r.Render() != "" {
		t.Error("nil registry renders non-empty dump")
	}
}

// TestGetOrCreateSharesInstruments checks that asking twice for a name
// returns the same instrument — the property that lets every crossbar of
// a network share one tally.
func TestGetOrCreateSharesInstruments(t *testing.T) {
	r := NewRegistry()
	a, b := r.Counter("x"), r.Counter("x")
	if a != b {
		t.Error("two Counter(x) calls returned distinct instruments")
	}
	a.Inc()
	b.Inc()
	if a.Value() != 2 {
		t.Errorf("shared counter = %d, want 2", a.Value())
	}
	h1 := r.Histogram("h", []int64{10, 20})
	h2 := r.Histogram("h", []int64{999}) // later buckets are ignored
	if h1 != h2 || len(h2.bounds) != 2 {
		t.Error("histogram get-or-create did not keep the first creation's buckets")
	}
}

// TestHistogramBucketsAndAggregates checks bucket assignment including
// the implicit overflow bucket, and the exact count/sum/min/max.
func TestHistogramBucketsAndAggregates(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	want := []int64{2, 2, 0, 1} // <=10 twice, <=100 twice, <=1000 none, overflow once
	for i, c := range h.counts {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
	if h.Count() != 5 || h.Sum() != 5126 || h.min != 5 || h.max != 5000 {
		t.Errorf("aggregates count=%d sum=%d min=%d max=%d", h.Count(), h.Sum(), h.min, h.max)
	}
}

// TestGaugeMaxIsHighWaterMark checks Max only raises the level.
func TestGaugeMaxIsHighWaterMark(t *testing.T) {
	g := NewRegistry().Gauge("g")
	g.Max(4)
	g.Max(2)
	if g.Value() != 4 {
		t.Errorf("gauge = %d, want 4", g.Value())
	}
	g.Set(1)
	if g.Value() != 1 {
		t.Errorf("gauge after Set = %d, want 1", g.Value())
	}
}

// buildDump records a fixed observation set and renders it.
func buildDump() string {
	r := NewRegistry()
	// Creation order differs from name order on purpose: the dump must
	// sort, not echo insertion.
	r.Counter("z.count").Add(7)
	r.Counter("a.count").Inc()
	r.Gauge("m.level").Set(3)
	h := r.TimeHistogram("lat", TimeBuckets(sim.Microsecond, 2, 3))
	h.ObserveTime(1500 * sim.Nanosecond)
	h.ObserveTime(9 * sim.Microsecond)
	return r.Render()
}

// TestRenderDeterministicAndSorted pins the dump shape: stable across
// runs, instruments sorted by name, time-valued histograms rendered as
// exact microseconds.
func TestRenderDeterministicAndSorted(t *testing.T) {
	out := buildDump()
	if out != buildDump() {
		t.Error("two identical recordings rendered different dumps")
	}
	if !strings.HasPrefix(out, "-- metrics --\n") {
		t.Errorf("dump missing header:\n%s", out)
	}
	if strings.Index(out, "a.count") > strings.Index(out, "z.count") {
		t.Errorf("counters not name-sorted:\n%s", out)
	}
	// 1500 ns = 1_500_000 ps renders as exactly 1.500000us.
	for _, want := range []string{
		"counter    a.count  1",
		"counter    z.count  7",
		"gauge      m.level  3",
		"count=2 min=1.500000us max=9.000000us mean=5.250000us",
		"le 2.000000us  1",
		"le +inf  1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

// TestExpBuckets checks that TimeBuckets produces the ascending
// geometric ladder.
func TestExpBuckets(t *testing.T) {
	tb := TimeBuckets(sim.Microsecond, 4, 3)
	for i, want := range []sim.Time{sim.Microsecond, 4 * sim.Microsecond, 16 * sim.Microsecond} {
		if tb[i] != want {
			t.Errorf("TimeBuckets[%d] = %v, want %v", i, tb[i], want)
		}
	}
}

// TestQuantile checks the fixed-bucket percentile extraction: rank
// resolution, min/max sharpening, overflow handling, and the nil/empty
// no-op contract.
func TestQuantile(t *testing.T) {
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Error("nil histogram Quantile != 0")
	}
	r := NewRegistry()
	h := r.Histogram("q", []int64{10, 20, 40, 80})
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram Quantile != 0")
	}
	// 10 observations: 4 in (0,10], 3 in (10,20], 2 in (20,40], 1 overflow.
	for _, v := range []int64{3, 5, 7, 9, 12, 15, 18, 25, 33, 500} {
		h.Observe(v)
	}
	cases := []struct {
		q    float64
		want int64
	}{
		{0.1, 10},   // rank 1 -> first bucket, bound 10
		{0.4, 10},   // rank 4 still inside the first bucket
		{0.5, 20},   // rank 5 -> second bucket
		{0.7, 20},   // rank 7 -> second bucket
		{0.9, 40},   // rank 9 -> third bucket
		{0.99, 500}, // rank 10 -> overflow bucket reports the exact max
		{1.0, 500},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if h.Quantile(0) != 3 {
		t.Errorf("Quantile(0) = %d, want min 3", h.Quantile(0))
	}
	if h.Quantile(2) != 500 {
		t.Errorf("Quantile(2) = %d, want max 500", h.Quantile(2))
	}

	// Min sharpening: a single observation above the first bound must not
	// report a bound below itself, and a single small observation must
	// report itself rather than its bucket's upper bound.
	one := r.Histogram("q.one", []int64{10, 20})
	one.Observe(4)
	if one.Quantile(0.5) != 4 {
		t.Errorf("single-observation Quantile = %d, want 4", one.Quantile(0.5))
	}
	hi := r.Histogram("q.hi", []int64{10, 20})
	hi.Observe(15)
	if hi.Quantile(0.01) != 15 {
		t.Errorf("min-sharpened Quantile = %d, want 15", hi.Quantile(0.01))
	}

	// Max sharpening inside a bucket: observations 11..13 live in the
	// (10,20] bucket; every quantile must clamp to max 13, not report 20.
	mid := r.Histogram("q.mid", []int64{10, 20})
	for _, v := range []int64{11, 12, 13} {
		mid.Observe(v)
	}
	if mid.Quantile(0.999) != 13 {
		t.Errorf("max-sharpened Quantile = %d, want 13", mid.Quantile(0.999))
	}

	// QuantileTime round-trips through the time domain.
	th := r.TimeHistogram("q.time", TimeBuckets(sim.Microsecond, 2, 4))
	th.ObserveTime(3 * sim.Microsecond)
	if th.QuantileTime(0.99) != 3*sim.Microsecond {
		t.Errorf("QuantileTime = %v, want 3us", th.QuantileTime(0.99))
	}
}

// TestQuantileMergeInvariance checks quantiles agree whether
// observations land in one registry or are merged from shards — the
// property per-tenant SLO percentiles rely on under partitioned runs.
func TestQuantileMergeInvariance(t *testing.T) {
	bounds := []int64{10, 100, 1000}
	whole := NewRegistry()
	wh := whole.Histogram("lat", bounds)
	shards := []*Registry{NewRegistry(), NewRegistry()}
	for i := 0; i < 40; i++ {
		v := int64((i*37)%1200 + 1)
		wh.Observe(v)
		shards[i%2].Histogram("lat", bounds).Observe(v)
	}
	folded := NewRegistry()
	for _, s := range shards {
		folded.MergeFrom(s)
	}
	fh := folded.Histogram("lat", bounds)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if wh.Quantile(q) != fh.Quantile(q) {
			t.Errorf("Quantile(%v): whole %d != folded %d", q, wh.Quantile(q), fh.Quantile(q))
		}
	}
}

// TestQuantileEmptyHistogram pins the documented empty contract
// explicitly: "Returns 0 on a nil or empty histogram". Every quantile
// reads 0 before the first observation — including q <= 0 (the min
// path) and q > 1 (the max clamp) — on both the nil receiver and an
// allocated histogram with no observations, and QuantileTime mirrors
// the contract in the time domain. Callers (traffic SLO percentiles,
// pmstat series) rely on the zero, not on a panic or a bucket bound.
func TestQuantileEmptyHistogram(t *testing.T) {
	var nilH *Histogram
	empty := NewRegistry().Histogram("empty", []int64{10, 20, 40})
	for _, q := range []float64{-1, 0, 0.001, 0.5, 0.999, 1, 2} {
		if got := nilH.Quantile(q); got != 0 {
			t.Errorf("nil.Quantile(%v) = %d, want 0", q, got)
		}
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty.Quantile(%v) = %d, want 0", q, got)
		}
		if got := empty.QuantileTime(q); got != 0 {
			t.Errorf("empty.QuantileTime(%v) = %v, want 0", q, got)
		}
	}
	// The contract is about emptiness, not youth: observing once and
	// merging an empty histogram in leaves the quantiles live.
	empty.Observe(7)
	if got := empty.Quantile(1); got != 7 {
		t.Errorf("after one observation Quantile(1) = %d, want 7", got)
	}
}
