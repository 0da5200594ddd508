package link

// Fault hooks for the wire model, used by the deterministic fault-campaign
// engine (internal/fault). The paper's duplicated communication system
// (Section 4) exists precisely so the machine survives a broken link; these
// hooks let the simulated wires break so that the failover path through the
// second network plane can be exercised and timed.
//
// Two fault classes live at wire level:
//
//   - a cut: the wire is severed at a point in simulated time and never
//     carries another byte. A circuit whose header would cross the wire at
//     or after the cut cannot form; a circuit already streaming when the
//     cut lands delivers a truncated message that the receiving link
//     interface rejects by CRC (Section 3.3).
//
//   - a corruption window: bytes crossing the wire inside the window are
//     delivered, but garbled — detected by the receive-side CRC check, not
//     by the sender.
//
// All fault state is plain data scheduled by the campaign engine from an
// explicit seeded generator; the wire itself stays deterministic.

import "powermanna/internal/sim"

// corruptWindow is one scheduled corruption interval [from, until).
type corruptWindow struct {
	from, until sim.Time
}

// wireFaults is the injected fault state of one wire.
type wireFaults struct {
	cut     sim.Time
	cutSet  bool
	corrupt []corruptWindow
}

// CutAt severs the wire from t onward. A second cut keeps the earlier
// time: once dead, always dead.
func (w *Wire) CutAt(t sim.Time) {
	if w.faults.cutSet && w.faults.cut <= t {
		return
	}
	w.faults.cut = t
	w.faults.cutSet = true
	if w.rec.Enabled() {
		w.rec.Instant(w.track, "fault", "cut", t)
	}
}

// CutTime reports when the wire was severed and whether it was cut at all.
func (w *Wire) CutTime() (sim.Time, bool) { return w.faults.cut, w.faults.cutSet }

// Faulted reports whether the wire has a cut or a corruption window at
// all: a wire without one never fails a CRC check.
func (w *Wire) Faulted() bool { return w.faults.cutSet || len(w.faults.corrupt) > 0 }

// DeadAt reports whether the wire is already severed at time t.
func (w *Wire) DeadAt(t sim.Time) bool { return w.faults.cutSet && w.faults.cut <= t }

// CorruptBetween schedules a corruption window: bytes on the wire during
// [from, until) arrive garbled and fail the receive-side CRC check.
func (w *Wire) CorruptBetween(from, until sim.Time) {
	if until <= from {
		return
	}
	w.faults.corrupt = append(w.faults.corrupt, corruptWindow{from: from, until: until})
	if w.rec.Enabled() {
		w.rec.Span(w.track, "fault", "corrupt-window", from, until)
	}
}

// CorruptedIn reports whether any scheduled corruption window overlaps the
// occupancy interval [from, until].
func (w *Wire) CorruptedIn(from, until sim.Time) bool {
	for _, cw := range w.faults.corrupt {
		if cw.from <= until && from < cw.until {
			return true
		}
	}
	return false
}
