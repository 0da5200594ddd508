// Package metrics is the deterministic always-on measurement registry of
// the simulator: named counters, gauges and fixed-bucket histograms the
// model layers feed whether or not tracing is enabled. Where
// internal/trace answers "where did the time go" with a full event
// timeline, this package answers "how much, how often, how spread" with
// O(1) state per instrument — cheap enough to leave wired into the hot
// send path permanently.
//
// Two properties are contractual, mirroring the trace recorder
// (DESIGN.md §8):
//
//   - Determinism. Instruments hold integer state only (int64 counts and
//     sums of simulated-time picoseconds), the dump renders instruments
//     sorted by name, and no wall clock or map-iteration order can reach
//     the output: two runs with the same seed dump byte-identical text.
//
//   - Zero overhead when off. A nil *Registry is the "metrics off" state:
//     it hands out nil instruments, and every instrument method no-ops on
//     a nil receiver. Instrumented call sites therefore resolve their
//     instruments once at attach time and call them unconditionally,
//     paying one nil check per observation and allocating nothing.
//
// Shard locality (the internal/psim contract): instruments are plain
// integers with no locks, so a Registry must only ever be observed from
// one psim shard. Campaigns attach the registry to the single observed
// (highest-rate) row, which keeps every observation shard-local; do not
// share a Registry across shards.
package metrics

import (
	"fmt"
	"sort"
	"strings"

	"powermanna/internal/sim"
)

// Counter is a monotonically accumulating count (messages sent, cache
// hits). The zero value of *Counter — nil — no-ops.
type Counter struct {
	v int64
}

// Add accumulates d. No-op on a nil counter.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v += d
}

// Inc adds one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the accumulated count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-value (or high-water-mark, via Max) instrument for
// levels and configuration facts: a queue's peak depth, the fault rate a
// campaign ran at. The zero value of *Gauge — nil — no-ops.
type Gauge struct {
	v int64
}

// Set records the current level. No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
}

// Max raises the gauge to v if v exceeds the current value — the
// high-water-mark use (peak ready-queue depth). No-op on a nil gauge.
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	if v > g.v {
		g.v = v
	}
}

// Value reports the gauge level (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram counts observations into fixed buckets chosen at creation:
// counts[i] tallies observations v <= bounds[i] (and above every earlier
// bound), with one implicit overflow bucket past the last bound. Count,
// sum, min and max are tracked exactly, so the mean needs no buckets.
// Observation is allocation-free: a linear scan over the (short, fixed)
// bound slice. The zero value of *Histogram — nil — no-ops.
type Histogram struct {
	name   string
	bounds []int64
	counts []int64 // len(bounds)+1; last is overflow
	count  int64
	sum    int64
	min    int64
	max    int64
	// timeValued marks observations as sim.Time picoseconds, rendered as
	// microseconds in the dump (raw int64 otherwise).
	timeValued bool
}

// Observe tallies one value. No-op on a nil histogram.
//
//pmlint:hotpath
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// ObserveTime tallies one simulated duration. No-op on a nil histogram.
//
//pmlint:hotpath
func (h *Histogram) ObserveTime(t sim.Time) { h.Observe(int64(t)) }

// Quantile reads the value at quantile q (0 < q <= 1) off the fixed
// buckets: the bound of the first bucket whose cumulative count reaches
// rank ceil(q*count), sharpened by the exact extrema — no bucket bound
// can undershoot the recorded min, and the overflow bucket (plus any
// bound past the recorded max) reports max exactly. The result is
// conservative within one bucket width, which is the deal fixed buckets
// offer: O(1) state, deterministic output, bounded error set by the
// bucket ladder. Returns 0 on a nil or empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q > 1 {
		q = 1
	}
	// rank = ceil(q * count), clamped to [1, count]. The product of a
	// float in (0,1] and an integer count is deterministic IEEE-754
	// arithmetic: same inputs, same rank, on every platform Go targets.
	rank := int64(q * float64(h.count))
	if float64(rank) < q*float64(h.count) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	cum := int64(0)
	for i, c := range h.counts {
		cum += c
		if cum < rank {
			continue
		}
		if i >= len(h.bounds) {
			return h.max
		}
		v := h.bounds[i]
		if v > h.max {
			v = h.max
		}
		if v < h.min {
			v = h.min
		}
		return v
	}
	return h.max
}

// QuantileTime is Quantile in the simulated-time domain.
func (h *Histogram) QuantileTime(q float64) sim.Time { return sim.Time(h.Quantile(q)) }

// Count reports the observation count (0 on a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum reports the observation sum (0 on a nil histogram).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Registry owns a namespace of instruments. Get-or-create by name:
// asking twice for the same name returns the same instrument, so
// independent subsystems (every crossbar of a network, every transport
// of a world) can share one tally without coordination. The zero value
// of *Registry — nil — is the "metrics off" state and hands out nil
// instruments.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds (ascending; copied) on first use. A later call
// with the same name returns the existing instrument — the first
// creation's buckets win. A nil registry returns a nil (no-op)
// histogram.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{
			name:   name,
			bounds: append([]int64(nil), bounds...),
			counts: make([]int64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// TimeHistogram is Histogram over simulated-time bounds; observations
// are picoseconds and the dump renders bounds and aggregates as
// microseconds. A nil registry returns a nil (no-op) histogram.
func (r *Registry) TimeHistogram(name string, bounds []sim.Time) *Histogram {
	if r == nil {
		return nil
	}
	raw := make([]int64, len(bounds))
	for i, b := range bounds {
		raw[i] = int64(b)
	}
	h := r.Histogram(name, raw)
	h.timeValued = true
	return h
}

// TimeBuckets builds n ascending simulated-time bucket bounds starting
// at lo, each factor times the previous — the shape latency
// distributions want.
func TimeBuckets(lo sim.Time, factor int64, n int) []sim.Time {
	bounds := make([]sim.Time, n)
	b := lo
	for i := 0; i < n; i++ {
		bounds[i] = b
		b *= sim.Time(factor)
	}
	return bounds
}

// MergeFrom folds another registry's observations into this one:
// counters and histogram tallies add, gauges keep the maximum (the
// high-water semantics every gauge in shard registries uses). Histograms
// merge exactly — bucket counts, count, sum and the min/max envelope —
// because every aggregate is a sum or an extremum, both commutative, so
// merging per-shard registries in shard order yields the same dump
// regardless of which shard observed what first at distinct instants.
// Instruments missing on the destination are created with the source's
// shape. Merging is the single-threaded fan-in step of a partitioned
// run (internal/netsim); it must not race with observations.
func (r *Registry) MergeFrom(src *Registry) {
	if r == nil || src == nil {
		return
	}
	names := make([]string, 0, len(src.counters))
	for n := range src.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.Counter(n).Add(src.counters[n].v)
	}
	names = names[:0]
	for n := range src.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.Gauge(n).Max(src.gauges[n].v)
	}
	names = names[:0]
	for n := range src.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sh := src.hists[n]
		h := r.Histogram(n, sh.bounds)
		h.timeValued = h.timeValued || sh.timeValued
		if sh.count == 0 {
			continue
		}
		if len(h.bounds) != len(sh.bounds) {
			panic(fmt.Sprintf("metrics: merging histogram %q with mismatched buckets", n))
		}
		if h.count == 0 || sh.min < h.min {
			h.min = sh.min
		}
		if h.count == 0 || sh.max > h.max {
			h.max = sh.max
		}
		h.count += sh.count
		h.sum += sh.sum
		for i, c := range sh.counts {
			h.counts[i] += c
		}
	}
}

// Render produces the registry's stable text dump: one line per counter
// and gauge, a header plus one bucket line per histogram, each kind
// sorted by instrument name. The dump is a pure function of the
// recorded observations. A nil registry renders the empty string.
func (r *Registry) Render() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString("-- metrics --\n")

	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	w := nameWidth(names)
	for _, n := range names {
		fmt.Fprintf(&b, "counter    %-*s  %d\n", w, n, r.counters[n].v)
	}

	names = names[:0]
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	w = nameWidth(names)
	for _, n := range names {
		fmt.Fprintf(&b, "gauge      %-*s  %d\n", w, n, r.gauges[n].v)
	}

	names = names[:0]
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.hists[n].render(&b)
	}
	return b.String()
}

// nameWidth is the alignment width for a name column.
func nameWidth(names []string) int {
	w := 0
	for _, n := range names {
		if len(n) > w {
			w = len(n)
		}
	}
	return w
}

// render appends the histogram's dump block: an aggregate header and one
// line per non-empty bucket (empty buckets are elided to keep dumps
// readable; the header's count makes the elision visible).
func (h *Histogram) render(b *strings.Builder) {
	fmt.Fprintf(b, "histogram  %s  count=%d", h.name, h.count)
	if h.count > 0 {
		fmt.Fprintf(b, " min=%s max=%s mean=%s",
			h.renderValue(h.min), h.renderValue(h.max), h.renderValue(h.sum/h.count))
	}
	b.WriteByte('\n')
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if i < len(h.bounds) {
			fmt.Fprintf(b, "  le %s  %d\n", h.renderValue(h.bounds[i]), c)
		} else {
			fmt.Fprintf(b, "  le +inf  %d\n", c)
		}
	}
}

// renderValue formats one observation-domain value: exact decimal
// microseconds for time-valued histograms (1 ps = 1e-6 µs, so the split
// is exact and float-free), the raw integer otherwise.
func (h *Histogram) renderValue(v int64) string {
	if !h.timeValued {
		return fmt.Sprintf("%d", v)
	}
	neg := ""
	if v < 0 {
		neg = "-"
		v = -v
	}
	return fmt.Sprintf("%s%d.%06dus", neg, v/1_000_000, v%1_000_000)
}
