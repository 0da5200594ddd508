package ni

import (
	"testing"

	"powermanna/internal/sim"
)

func TestStallDefersSends(t *testing.T) {
	var l LinkIF
	l.Stall(10*sim.Microsecond, 20*sim.Microsecond)
	if got := l.ReadyAt(5 * sim.Microsecond); got != 5*sim.Microsecond {
		t.Errorf("ReadyAt before window = %v, want unchanged", got)
	}
	if got := l.ReadyAt(10 * sim.Microsecond); got != 20*sim.Microsecond {
		t.Errorf("ReadyAt at window start = %v, want window end", got)
	}
	if got := l.ReadyAt(20 * sim.Microsecond); got != 20*sim.Microsecond {
		t.Errorf("ReadyAt at window end = %v, want unchanged (half-open)", got)
	}
}

func TestStallAbuttingWindowsChain(t *testing.T) {
	var l LinkIF
	// Deliberately out of order: ReadyAt must chain across both.
	l.Stall(20*sim.Microsecond, 30*sim.Microsecond)
	l.Stall(10*sim.Microsecond, 20*sim.Microsecond)
	if got := l.ReadyAt(15 * sim.Microsecond); got != 30*sim.Microsecond {
		t.Errorf("ReadyAt = %v, want 30us across abutting windows", got)
	}
}

// The per-message CRC verdicts are counted by the network planes; what a
// link interface keeps at timing level is its stall state, and Reset
// must return it to a healthy interface.
func TestTimingLevelCounters(t *testing.T) {
	var l LinkIF
	if l.ReadyAt(0) != 0 {
		t.Error("zero-value interface defers sends")
	}
	l.Stall(0, 1*sim.Microsecond)
	if l.ReadyAt(0) != 1*sim.Microsecond {
		t.Error("stall window not applied")
	}
	l.Reset()
	if l.ReadyAt(0) != 0 {
		t.Error("Reset kept stall windows")
	}
}
