// Package link models the PowerMANNA link protocol (Section 3.2 of the
// paper): a clock-synchronous, byte-parallel, bidirectional point-to-point
// connection at 60 MHz. Each direction is a 9-bit channel (8 data bits
// plus a control flag distinguishing commands like route and close from
// payload) with a stop signal running the opposite way for soft flow
// control against the receiver-side FIFO.
//
// Each port sustains 60 Mbyte/s per direction — 120 Mbyte/s full duplex —
// and the full-duplex design excludes protocol deadlocks. For distances
// beyond the clock-synchronous reach (between cabinets, up to 30 m),
// asynchronous transceivers with 2-Kbyte FIFOs bridge the link.
//
// The CRC the link-interface ASIC generates and checks (Section 3.3: "the
// link-interface chip performs generation and checking of a CRC check
// sum") is modelled at timing level: messages carry sizes, not payload
// bytes, and a wire's corruption window or mid-stream cut (fault.go) is
// what makes the receive-side check fail. The destination then NACKs the
// message; no byte codec exists.
package link

import (
	"fmt"

	"powermanna/internal/sim"
	"powermanna/internal/trace"
)

// Config describes one link direction.
type Config struct {
	// Name labels the wire in diagnostics.
	Name string
	// Clock is the link clock: 60 MHz, one byte per cycle (Section 3.2).
	Clock sim.Clock
	// WidthBytes is the datapath width per cycle (1 for the byte-parallel
	// PowerMANNA link).
	WidthBytes int
	// PropagationDelay is the signal flight time plus synchronizer delay;
	// small within a cabinet.
	PropagationDelay sim.Time
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.Clock.Period <= 0:
		return fmt.Errorf("link %q: zero clock", c.Name)
	case c.WidthBytes <= 0:
		return fmt.Errorf("link %q: WidthBytes = %d", c.Name, c.WidthBytes)
	case c.PropagationDelay < 0:
		return fmt.Errorf("link %q: negative propagation delay", c.Name)
	}
	return nil
}

// BytePeriod is the wire occupancy of one byte at the 60 Mbyte/s link
// rate: the 60 MHz link clock moves one byte per cycle (Section 3.2), so
// a byte holds the wire for 16667 ps. Sender-occupancy and gap models
// that reason about the link draining at line rate share this constant
// instead of re-deriving the magic number.
const BytePeriod = 16667 * sim.Picosecond

// Default returns the PowerMANNA link: 60 MHz, byte-parallel, one cycle
// of synchronizer delay.
func Default(name string) Config {
	return Config{
		Name:             name,
		Clock:            sim.ClockMHz(60),
		WidthBytes:       1,
		PropagationDelay: 17 * sim.Nanosecond, // one 60 MHz cycle
	}
}

// TransferTime reports the wire occupancy of n bytes.
func (c Config) TransferTime(n int) sim.Time {
	cycles := (n + c.WidthBytes - 1) / c.WidthBytes
	return c.Clock.Cycles(int64(cycles))
}

// Wire is one direction of a link: an occupancy timeline that wormhole
// circuits claim (Hold) and headers peek at (FreeAt). Transfer and
// propagation times come from the Config the owning network walks with
// and validates once, so a wire carries no copy of it; flow control (the
// stop signal) is the driver model's concern. The zero value is an idle,
// healthy wire, so a network builds its wires in slices of many.
type Wire struct {
	res    sim.Resource
	faults wireFaults
	// rec, when non-nil, records occupancy spans and fault instants on
	// track (trace.WireTrack of the owning network position).
	rec   *trace.Recorder
	track trace.TrackID
}

// Trace attaches a recorder to the wire under the given track identity;
// a nil recorder detaches. Occupancy holds and injected faults are then
// recorded as trace events.
func (w *Wire) Trace(rec *trace.Recorder, track trace.TrackID) {
	w.rec, w.track = rec, track
}

// FreeAt reports when the wire next becomes free.
func (w *Wire) FreeAt() sim.Time { return w.res.FreeAt() }

// Hold claims the wire for a wormhole circuit from start until `until`
// (the close command passing). The network's wormhole walk peeks FreeAt
// to find start before it claims.
func (w *Wire) Hold(start, until sim.Time) {
	if until < start {
		panic(fmt.Sprintf("link: hold window [%v, %v) inverted", start, until))
	}
	w.res.Acquire(start, until-start)
	if w.rec.Enabled() {
		w.rec.Span(w.track, "link", "hold", start, until)
	}
}

// Reset clears the timeline and injected fault state.
func (w *Wire) Reset() {
	w.res.Reset()
	w.faults = wireFaults{}
}

// Transceiver models the asynchronous inter-cabinet transceiver pair
// (Section 3.2) as latency only: the extra delay of the asynchronous
// crossing. The hardware's 2-Kbyte input FIFO, which keeps soft flow
// control working over the longer stop-signal round trip, changes no
// timing in the model and is not represented.
type Transceiver struct {
	// Latency is the added crossing delay per direction.
	Latency sim.Time
}

// DefaultTransceiver returns the PowerMANNA inter-cabinet transceiver:
// latency calibrated for tens-of-metres cabling plus synchronization.
func DefaultTransceiver() Transceiver {
	return Transceiver{Latency: 300 * sim.Nanosecond}
}
