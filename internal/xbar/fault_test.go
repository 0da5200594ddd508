package xbar

import (
	"testing"

	"powermanna/internal/sim"
)

func TestStickOutputBlocksWindow(t *testing.T) {
	x := New("A")
	x.StickOutput(3, 1*sim.Microsecond, 5*sim.Microsecond)
	if got := x.OutputFreeAt(3); got != 5*sim.Microsecond {
		t.Errorf("OutputFreeAt = %v, want 5us", got)
	}
	// A circuit requesting the stuck channel waits out the window.
	setup := connect(&x, 2*sim.Microsecond, 3, 100*sim.Nanosecond)
	if setup != 5*sim.Microsecond+RouteSetup {
		t.Errorf("setup = %v, want window end + route setup", setup)
	}
	st := x.Stats()
	if st.Stuck != 1 || st.Blocked != 1 {
		t.Errorf("Stats = %+v, want Stuck 1 Blocked 1", st)
	}
	// Other outputs are unaffected.
	if x.OutputFreeAt(4) != 0 {
		t.Error("unrelated output disturbed")
	}
}

func TestStickOutputEmptyWindowIgnored(t *testing.T) {
	x := New("A")
	x.StickOutput(0, 5*sim.Microsecond, 5*sim.Microsecond)
	if x.Stats().Stuck != 0 || x.OutputFreeAt(0) != 0 {
		t.Error("empty window took effect")
	}
}

func TestResetClearsStuck(t *testing.T) {
	x := New("A")
	x.StickOutput(0, 0, 1*sim.Microsecond)
	x.Reset()
	if x.Stats().Stuck != 0 || x.OutputFreeAt(0) != 0 {
		t.Error("Reset incomplete")
	}
}
