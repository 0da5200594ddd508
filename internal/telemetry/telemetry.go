// Package telemetry is the windowed time-series layer over the
// deterministic metrics registry: where internal/metrics answers "how
// much, how often, how spread" for a whole run, this package answers
// *when* — per-window counts and distribution snapshots on a
// fixed simulated-time grid, the view that turns "p999 blew the SLO"
// into "p999 blew the SLO in windows 11–14, right after the link cut".
//
// The design constraint is the same determinism-under-sharding contract
// as the rest of the observability stack (DESIGN.md §11): rendered
// series must be byte-identical across --engine seq|par and every
// aligned shard count. The usual snapshot-on-a-timer design cannot
// deliver that — a roll event racing same-timestamp observations would
// make the window assignment depend on event interleaving. Instead,
// every observation carries its own simulated-time stamp and the
// instrument indexes the cell directly from it:
//
//	window(t) = t / width        (clamped to the tail cell past the grid)
//
// The window an observation lands in is therefore a pure function of
// the model, never of event order, and per-shard samplers fold by
// cell-wise sums and extrema — commutative, so the fold is independent
// of shard count and merge order, the same argument as
// metrics.Registry.MergeFrom.
//
// Zero-allocation roll: the full window grid is allocated when an
// instrument is created (the horizon is known up front), so advancing
// to a new window — the "roll" — is pure index arithmetic on the hot
// observation path. A nil instrument no-ops, mirroring the
// nil-registry convention of internal/metrics.
//
// Shard locality: like a metrics.Registry, a Sampler must only ever be
// observed from one psim shard; partitioned layers hold one Sampler per
// shard and fold them after the run (internal/traffic does exactly
// this).
package telemetry

import (
	"fmt"
	"sort"

	"powermanna/internal/sim"
)

// AutoWindows is the window count the auto-sized grid targets: with no
// explicit width the horizon splits into this many windows, rounded up
// to a whole microsecond per window so the grid stays human-readable.
const AutoWindows = 32

// AutoWindow resolves the auto-sized window width for a horizon:
// horizon/AutoWindows, rounded up to a whole microsecond (minimum one
// microsecond, so degenerate horizons still grid).
func AutoWindow(horizon sim.Time) sim.Time {
	w := horizon / AutoWindows
	w = ((w + sim.Microsecond - 1) / sim.Microsecond) * sim.Microsecond
	if w < sim.Microsecond {
		w = sim.Microsecond
	}
	return w
}

// Sampler owns a namespace of windowed instruments sharing one grid:
// windows [i*width, (i+1)*width) for i in [0, windows), plus one
// open-ended tail cell for observations past the grid (a run drains
// in-flight work beyond its offered-load horizon; the tail keeps those
// observations visible instead of silently clipped). Get-or-create by
// name, like metrics.Registry. The zero value of *Sampler — nil — is
// the "telemetry off" state and hands out nil (no-op) instruments.
type Sampler struct {
	width   sim.Time
	windows int
	series  map[string]*Series
	hists   map[string]*HistSeries
}

// NewSampler builds a sampler over the grid covering [0, horizon) with
// the given window width; width <= 0 auto-sizes via AutoWindow. The
// grid always has at least one window.
func NewSampler(horizon, width sim.Time) *Sampler {
	if width <= 0 {
		width = AutoWindow(horizon)
	}
	n := int((horizon + width - 1) / width)
	if n < 1 {
		n = 1
	}
	return &Sampler{
		width:   width,
		windows: n,
		series:  make(map[string]*Series),
		hists:   make(map[string]*HistSeries),
	}
}

// Window reports the grid's window width (0 on a nil sampler).
func (s *Sampler) Window() sim.Time {
	if s == nil {
		return 0
	}
	return s.width
}

// Windows reports the number of regular grid windows, excluding the
// tail cell (0 on a nil sampler).
func (s *Sampler) Windows() int {
	if s == nil {
		return 0
	}
	return s.windows
}

// cellIndex maps an observation instant onto the grid: its window, or
// the tail cell (index windows) past the grid; instants before time
// zero clamp into window 0 (they cannot occur in a well-formed model,
// but a clamp keeps the hot path branch-cheap and panic-free).
//
//pmlint:hotpath
func cellIndex(at, width sim.Time, windows int) int {
	if at < 0 {
		return 0
	}
	i := int(at / width)
	if i > windows {
		return windows
	}
	return i
}

// Series is a windowed counter: one int64 accumulator per grid cell.
// The zero value of *Series — nil — no-ops.
type Series struct {
	width sim.Time
	cells []int64
}

// Add accumulates d into the window containing at. No-op on nil. This
// is the window-roll hot path: pure index arithmetic, no allocation.
//
//pmlint:hotpath
func (c *Series) Add(at sim.Time, d int64) {
	if c == nil {
		return
	}
	c.cells[cellIndex(at, c.width, len(c.cells)-1)] += d
}

// Inc adds one at the given instant. No-op on nil.
//
//pmlint:hotpath
func (c *Series) Inc(at sim.Time) { c.Add(at, 1) }

// Cell reports window i's accumulated value (the tail cell is index
// Windows()). Returns 0 on a nil series or out-of-range index.
func (c *Series) Cell(i int) int64 {
	if c == nil || i < 0 || i >= len(c.cells) {
		return 0
	}
	return c.cells[i]
}

// HistCell is one window's distribution snapshot: exact count, sum and
// extrema of the observations that landed in the window. Every field
// folds commutatively (sums and extrema), so merged snapshots are
// placement-independent.
type HistCell struct {
	Count, Sum, Min, Max int64
}

// Mean reports the cell's mean observation (0 when empty).
func (c HistCell) Mean() int64 {
	if c.Count == 0 {
		return 0
	}
	return c.Sum / c.Count
}

// HistSeries is a windowed distribution: one HistCell per grid cell.
// The zero value of *HistSeries — nil — no-ops.
type HistSeries struct {
	width sim.Time
	cells []HistCell
}

// Observe tallies one value into the window containing at. No-op on
// nil. Window-roll hot path: index arithmetic only.
//
//pmlint:hotpath
func (h *HistSeries) Observe(at sim.Time, v int64) {
	if h == nil {
		return
	}
	c := &h.cells[cellIndex(at, h.width, len(h.cells)-1)]
	if c.Count == 0 || v < c.Min {
		c.Min = v
	}
	if c.Count == 0 || v > c.Max {
		c.Max = v
	}
	c.Count++
	c.Sum += v
}

// ObserveTime tallies one simulated duration. No-op on nil.
//
//pmlint:hotpath
func (h *HistSeries) ObserveTime(at sim.Time, d sim.Time) { h.Observe(at, int64(d)) }

// Cell reports window i's snapshot (zero value on a nil series or
// out-of-range index).
func (h *HistSeries) Cell(i int) HistCell {
	if h == nil || i < 0 || i >= len(h.cells) {
		return HistCell{}
	}
	return h.cells[i]
}

// Series returns the named windowed counter, creating it on first use.
// A nil sampler returns a nil (no-op) series.
func (s *Sampler) Series(name string) *Series {
	if s == nil {
		return nil
	}
	c, ok := s.series[name]
	if !ok {
		c = &Series{width: s.width, cells: make([]int64, s.windows+1)}
		s.series[name] = c
	}
	return c
}

// TimeHist returns the named windowed distribution of simulated
// durations, creating it on first use. A nil sampler returns a nil
// (no-op) series.
func (s *Sampler) TimeHist(name string) *HistSeries {
	if s == nil {
		return nil
	}
	h, ok := s.hists[name]
	if !ok {
		h = &HistSeries{width: s.width, cells: make([]HistCell, s.windows+1)}
		s.hists[name] = h
	}
	return h
}

// MergeFrom folds another sampler's cells into this one: counters and
// histogram counts and sums add, histogram extrema keep the wider one. Both samplers
// must share the grid (width and window count) — a mismatch panics,
// because silently re-bucketing would corrupt the series. Instruments
// missing on the destination are created. Merging is the single-
// threaded fan-in step after a partitioned run; it must not race with
// observations. Every fold is commutative, so merging per-shard
// samplers in any order yields identical cells.
func (s *Sampler) MergeFrom(src *Sampler) {
	if s == nil || src == nil {
		return
	}
	if s.width != src.width || s.windows != src.windows {
		panic(fmt.Sprintf("telemetry: merging samplers with mismatched grids (%v/%d vs %v/%d)",
			s.width, s.windows, src.width, src.windows))
	}
	for _, name := range sortedKeys(src.series) {
		dst, sc := s.Series(name), src.series[name]
		for i, v := range sc.cells {
			dst.cells[i] += v
		}
	}
	for _, name := range sortedKeys(src.hists) {
		dst, sh := s.TimeHist(name), src.hists[name]
		for i, c := range sh.cells {
			d := &dst.cells[i]
			if c.Count == 0 {
				continue
			}
			if d.Count == 0 || c.Min < d.Min {
				d.Min = c.Min
			}
			if d.Count == 0 || c.Max > d.Max {
				d.Max = c.Max
			}
			d.Count += c.Count
			d.Sum += c.Sum
		}
	}
}

// sortedKeys returns a map's keys in sorted order, so every iteration
// that can reach output or merge order is deterministic.
func sortedKeys[V any](m map[string]*V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WindowLabel renders grid cell i's range ("[0,25)us", or ">=800us"
// for the tail) — the row key every series table shares.
func (s *Sampler) WindowLabel(i int) string {
	if s == nil {
		return ""
	}
	us := int64(s.width / sim.Microsecond)
	if i >= s.windows {
		return fmt.Sprintf(">=%dus", int64(s.windows)*us)
	}
	return fmt.Sprintf("[%d,%d)us", int64(i)*us, int64(i+1)*us)
}
