// Package trace is the deterministic event recorder behind cmd/pmtrace:
// a per-run timeline of typed events — spans and instants — keyed
// exclusively on simulated time. The paper's architectural arguments are
// timeline arguments (wormhole setup versus teardown, plane contention
// under failover, dispatcher occupancy, the 12 µs detection window), and
// aggregate counters cannot show *where* such a window goes; a trace can.
//
// Three properties are contractual:
//
//   - Determinism. Events carry sim.Time only, never wall clocks, and the
//     exporters (chrome.go, profile.go) emit bytes in insertion or
//     explicitly sorted order — two runs with the same seed produce
//     byte-identical output. pmlint's determinism analyzer enforces the
//     wall-clock ban mechanically.
//
//   - Zero overhead when off. Every Recorder method no-ops on a nil
//     receiver, so instrumented hot paths pay one nil check per event
//     site and allocate nothing. Call sites that build event labels guard
//     with Enabled() first, so label formatting is also skipped.
//
//   - Stable track identity. A TrackID is a pure function of topology
//     coordinates (node, CPU, plane, crossbar port, directed wire,
//     dispatcher unit), not of event order, so traces from different runs
//     and seeds line up track for track.
package trace

import "powermanna/internal/sim"

// TrackID identifies one resource timeline. The class (node, CPU,
// crossbar port, wire, dispatcher, OS stream) lives in the high bits and
// an index derived from topology coordinates in the low bits; the Chrome
// exporter maps class to pid and index to tid.
type TrackID int64

// Track classes, the pid axis of the exported trace.
const (
	// ClassNode groups per-node message timelines.
	ClassNode = 1 + iota
	// ClassCPU groups per-CPU timelines: EU and SU of the dual-CPU node.
	ClassCPU
	// Class 3 is unused, so the later classes keep their exported pids.
	_
	// ClassXbarPort groups crossbar output-channel timelines.
	ClassXbarPort
	// ClassWire groups directed-wire occupancy timelines.
	ClassWire
	// ClassDispatch groups dispatcher address/data-path timelines.
	ClassDispatch
	// ClassOS is the background operating-system stream's timeline.
	ClassOS
)

const (
	// classShift positions the class above any realistic index.
	classShift = 32
	// portStride spaces per-device port indices; it exceeds the 16-port
	// crossbar radix so (device, port) packs without collision.
	portStride = 32
	// CPUsPerNode indexes the dual-CPU node's EU (0) and SU (1).
	CPUsPerNode = 2
	// wireDirs counts the two directions of a bidirectional link.
	wireDirs = 2
)

func tid(class, index int) TrackID {
	return TrackID(int64(class)<<classShift | int64(index))
}

// Class reports the track's class (ClassNode, ClassCPU, ...).
func (t TrackID) Class() int { return int(int64(t) >> classShift) }

// Index reports the track's index within its class.
func (t TrackID) Index() int { return int(int64(t) & (1<<classShift - 1)) }

// NodeTrack is the message timeline of one node.
func NodeTrack(node int) TrackID { return tid(ClassNode, node) }

// CPUTrack is one CPU of a node: cpu 0 is the Execution Unit, cpu 1 the
// Synchronization Unit of the EARTH split.
func CPUTrack(node, cpu int) TrackID { return tid(ClassCPU, node*CPUsPerNode+cpu) }

// XbarPortTrack is one output channel of one crossbar.
func XbarPortTrack(xbar, out int) TrackID {
	return tid(ClassXbarPort, xbar*portStride+out)
}

// WireTrack is one direction of the wire at (dev, port); dir follows
// netsim's convention (0 = out of the port, 1 = into it).
func WireTrack(dev, port, dir int) TrackID {
	return tid(ClassWire, (dev*portStride+port)*wireDirs+dir)
}

// DispatchTrack is one dispatcher unit: 0 is the serialized address/snoop
// path, 1+m the point-to-point data path of master m.
func DispatchTrack(unit int) TrackID { return tid(ClassDispatch, unit) }

// OSTrack is the background OS stream's timeline.
func OSTrack() TrackID { return tid(ClassOS, 0) }

// EventKind distinguishes spans from instants.
type EventKind uint8

// The event kinds.
const (
	// SpanEvent covers an interval [Start, End].
	SpanEvent EventKind = iota
	// InstantEvent marks a single point (Start == End).
	InstantEvent
)

// Event is one recorded trace event. Name is the aggregation key of the
// text profile (keep it a small closed vocabulary); per-event detail goes
// in Arg.
type Event struct {
	// Track is the timeline the event belongs to.
	Track TrackID
	// Kind is SpanEvent or InstantEvent.
	Kind EventKind
	// Start and End bound the event in simulated time (End == Start for
	// instants).
	Start, End sim.Time
	// Cat names the emitting subsystem ("netsim", "link", "xbar",
	// "failover", "dispatch", "earth", "os").
	Cat string
	// Name is the event label, shared across events of one shape.
	Name string
	// Arg is optional per-event detail ("" for none).
	Arg string
}

// Recorder accumulates events for one run. The zero value of *Recorder —
// nil — is the "tracing off" state: every method no-ops, costing the
// caller one nil check. Recorders are not safe for concurrent use, which
// is moot in the single-threaded simulation core (pmlint bans goroutines
// there anyway).
type Recorder struct {
	events []Event
}

// NewRecorder returns an empty, enabled recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Enabled reports whether events are being recorded; callers use it to
// skip label formatting when tracing is off. Safe on a nil receiver.
func (r *Recorder) Enabled() bool { return r != nil }

// Span records an interval event on a track. End is clamped to Start so
// a defensively-inverted window cannot corrupt the timeline. No-op when
// the recorder is nil.
func (r *Recorder) Span(track TrackID, cat, name string, start, end sim.Time) {
	if r == nil {
		return
	}
	if end < start {
		end = start
	}
	r.events = append(r.events, Event{Track: track, Kind: SpanEvent, Start: start, End: end, Cat: cat, Name: name})
}

// SpanArg is Span with per-event detail. No-op when the recorder is nil.
func (r *Recorder) SpanArg(track TrackID, cat, name string, start, end sim.Time, arg string) {
	if r == nil {
		return
	}
	if end < start {
		end = start
	}
	r.events = append(r.events, Event{Track: track, Kind: SpanEvent, Start: start, End: end, Cat: cat, Name: name, Arg: arg})
}

// Instant records a point event on a track. No-op when the recorder is
// nil.
func (r *Recorder) Instant(track TrackID, cat, name string, at sim.Time) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{Track: track, Kind: InstantEvent, Start: at, End: at, Cat: cat, Name: name})
}

// InstantArg is Instant with per-event detail. No-op when the recorder is
// nil.
func (r *Recorder) InstantArg(track TrackID, cat, name string, at sim.Time, arg string) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{Track: track, Kind: InstantEvent, Start: at, End: at, Cat: cat, Name: name, Arg: arg})
}

// Len reports the recorded event count (0 on a nil recorder).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Events returns a defensive copy of the recorded events in insertion
// order, so analyzers (utilization windows, critical-path extraction,
// diff alignment) can sort and slice freely without perturbing the
// recorder's canonical order. Insertion order is deterministic because
// the simulation core is single-threaded and seeded. Nil (not an empty
// slice) when nothing is recorded.
func (r *Recorder) Events() []Event {
	if r == nil || len(r.events) == 0 {
		return nil
	}
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}
