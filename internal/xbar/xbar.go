// Package xbar models the PowerMANNA crossbar ASIC (Section 3.1 of the
// paper): a 16×16 crossbar integrating per-input FIFO buffers, command and
// address decoding, and per-output arbiters on a single chip. It
// implements wormhole routing with soft flow control:
//
//   - A logical connection is opened by a one-byte route command carrying
//     the output channel address; the command is consumed by the crossbar,
//     so a path across k crossbars needs k route bytes in the header.
//   - Collision-free through-routing takes 0.2 µs.
//   - The connection holds its output channel (a wormhole circuit) until a
//     close command releases it.
//
// Unlike the CM-5's 8×8 crossbar, whose inputs route only to outputs of a
// different tree level, every input here can reach every output — the
// property that gives PowerMANNA its topology flexibility (Section 3).
package xbar

import (
	"fmt"

	"powermanna/internal/metrics"
	"powermanna/internal/sim"
	"powermanna/internal/trace"
)

// MetricArbWait is the arbitration-wait histogram every crossbar of a
// network shares: how long route commands waited on a busy output
// channel before their circuit could form (zero-wait connects are not
// observed; the opened/blocked counters carry the ratio).
const MetricArbWait = "xbar.arb-wait"

// MetricArbWaitPlanePrefix prefixes the per-plane arbitration-wait
// histograms ("xbar.arb-wait.plane-A", "xbar.arb-wait.plane-B"): the
// same waits as MetricArbWait, split by the network plane the crossbar
// serves, so a fault campaign can see plane-B arbitration heat up while
// plane-A failovers land on it.
const MetricArbWaitPlanePrefix = "xbar.arb-wait.plane-"

// Ports is the crossbar radix.
const Ports = 16

// RouteSetup is the collision-free through-routing time (Section 3.1:
// "this through-routing takes only 0.2 microseconds").
const RouteSetup = 200 * sim.Nanosecond

// Crossbar is one 16×16 crossbar instance.
type Crossbar struct {
	name    string
	outputs [Ports]sim.Resource // circuit occupancy per output channel
	opened  int64
	blocked int64 // connections that waited on a busy output
	stuck   int64 // injected stuck-busy fault windows (internal/fault)
	// rec, when non-nil, records per-output circuit and arbitration spans
	// under XbarPortTrack(ordinal, out).
	rec     *trace.Recorder
	ordinal int
	// arbWait, when non-nil, tallies arbitration waits into the shared
	// MetricArbWait histogram (nil = metrics off, observation no-ops).
	arbWait *metrics.Histogram
	// planeWait additionally tallies the same waits into the per-plane
	// histogram when the owning network attached a plane label.
	planeWait *metrics.Histogram
}

// New builds an idle crossbar. It returns the crossbar by value, so a
// network keeps all of its crossbars in one slice.
func New(name string) Crossbar { return Crossbar{name: name} }

// Trace attaches a recorder under the given crossbar ordinal (its index
// in the owning network); a nil recorder detaches. Circuit holds,
// arbitration waits and injected stuck windows are then recorded.
func (x *Crossbar) Trace(rec *trace.Recorder, ordinal int) {
	x.rec, x.ordinal = rec, ordinal
}

// Metrics attaches a metrics registry: arbitration waits land in the
// shared MetricArbWait time histogram and, when plane is non-empty
// ("A"/"B", from the owning network's topology), also in the per-plane
// MetricArbWaitPlanePrefix histogram. A nil registry detaches.
func (x *Crossbar) Metrics(m *metrics.Registry, plane string) {
	if m == nil {
		x.arbWait, x.planeWait = nil, nil
		return
	}
	buckets := metrics.TimeBuckets(200*sim.Nanosecond, 2, 10)
	x.arbWait = m.TimeHistogram(MetricArbWait, buckets)
	x.planeWait = nil
	if plane != "" {
		x.planeWait = m.TimeHistogram(MetricArbWaitPlanePrefix+plane, buckets)
	}
}

// EncodeRoute builds the route command byte for an output channel; the
// crossbar consumes it from the header.
func EncodeRoute(out int) byte {
	if out < 0 || out >= Ports {
		panic(fmt.Sprintf("xbar: output %d out of range", out))
	}
	return byte(out)
}

// traceHold records one circuit's arbitration wait (if any) and its
// output-channel occupancy: the wait into the shared and per-plane
// metrics histograms, both spans onto the port's track when tracing.
//
//pmlint:hotpath
func (x *Crossbar) traceHold(requested, start, until sim.Time, out int) {
	if start > requested {
		x.arbWait.ObserveTime(start - requested)
		x.planeWait.ObserveTime(start - requested)
	}
	if !x.rec.Enabled() {
		return
	}
	track := trace.XbarPortTrack(x.ordinal, out)
	if start > requested {
		x.rec.Span(track, "xbar", "arb-wait", requested, start)
	}
	x.rec.Span(track, "xbar", "circuit", start, until)
}

// OutputFreeAt reports when output channel out next becomes free — used
// by the network's two-pass wormhole setup to compute a circuit's blocking
// before claiming the whole path.
func (x *Crossbar) OutputFreeAt(out int) sim.Time {
	if out < 0 || out >= Ports {
		panic(fmt.Sprintf("xbar %s: output %d out of range", x.name, out))
	}
	return x.outputs[out].FreeAt()
}

// HoldOutput claims output out from start until `until` for a wormhole
// circuit whose route command arrived at `requested`. A start after the
// request means the circuit waited on a busy channel (counted as
// blocked). Wormhole semantics: the claim covers the full window until
// the close command passes, even while the worm is stalled downstream.
//
//pmlint:hotpath
func (x *Crossbar) HoldOutput(requested, start, until sim.Time, out int) {
	if out < 0 || out >= Ports {
		panic(fmt.Sprintf("xbar %s: output %d out of range", x.name, out)) //pmlint:allow hotpath cold panic guard for a routing bug, never taken per message
	}
	if until < start {
		panic(fmt.Sprintf("xbar %s: hold window [%v, %v) inverted", x.name, start, until)) //pmlint:allow hotpath cold panic guard for a model bug, never taken per message
	}
	x.outputs[out].Acquire(start, until-start)
	if start > requested {
		x.blocked++
	}
	x.opened++
	x.traceHold(requested, start, until, out)
}

// ClaimOutput acquires output channel out for [start, until) without
// touching the crossbar's shared counters, trace recorder or metrics
// instruments. It exists for the node-partitioned send path
// (internal/netsim), where one crossbar's output channels can belong to
// different psim shards: the per-output occupancy timeline is owned by
// the output's shard and safe to claim here, while arbitration
// accounting and spans land in the claiming shard's own instruments.
//
//pmlint:hotpath
func (x *Crossbar) ClaimOutput(start, until sim.Time, out int) {
	if out < 0 || out >= Ports {
		panic(fmt.Sprintf("xbar %s: output %d out of range", x.name, out)) //pmlint:allow hotpath cold panic guard for a routing bug, never taken per message
	}
	if until < start {
		panic(fmt.Sprintf("xbar %s: hold window [%v, %v) inverted", x.name, start, until)) //pmlint:allow hotpath cold panic guard for a model bug, never taken per message
	}
	x.outputs[out].Acquire(start, until-start)
}

// StickOutput injects a stuck-busy fault: output channel out is forced
// busy for the window [from, until), as if a failed arbiter never released
// the crosspoint. Circuits requesting the channel inside the window wait
// like any contender — the fault-aware send path (netsim.Transport)
// gives up after its setup timeout and fails over to the other network
// plane. Like every Resource acquisition, the window must be applied in
// non-decreasing time order relative to traffic; the fault injector
// guarantees this by applying events before each send they precede.
func (x *Crossbar) StickOutput(out int, from, until sim.Time) {
	if out < 0 || out >= Ports {
		panic(fmt.Sprintf("xbar %s: output %d out of range", x.name, out))
	}
	if until <= from {
		return
	}
	x.outputs[out].Acquire(from, until-from)
	x.stuck++
	if x.rec.Enabled() {
		x.rec.Span(trace.XbarPortTrack(x.ordinal, out), "fault", "stuck", from, until)
	}
}

// Stats reports connection counts.
type Stats struct {
	Opened  int64
	Blocked int64
	// Stuck counts injected stuck-busy fault windows.
	Stuck int64
}

// Stats returns accumulated counters.
func (x *Crossbar) Stats() Stats {
	return Stats{Opened: x.opened, Blocked: x.blocked, Stuck: x.stuck}
}

// Reset clears all circuit timelines and counters.
func (x *Crossbar) Reset() {
	for i := range x.outputs {
		x.outputs[i].Reset()
	}
	x.opened, x.blocked, x.stuck = 0, 0, 0
}
