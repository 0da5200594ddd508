package xbar

import (
	"testing"
	"testing/quick"

	"powermanna/internal/sim"
)

func TestRouteSetupTime(t *testing.T) {
	if RouteSetup != 200*sim.Nanosecond {
		t.Errorf("RouteSetup = %v, want 0.2us (Section 3.1)", RouteSetup)
	}
}

// The route command byte is the output index itself: the crossbar reads
// it straight off the header as the channel to claim.
func TestEncodeDecodeRoute(t *testing.T) {
	for out := 0; out < Ports; out++ {
		if b := EncodeRoute(out); int(b) != out {
			t.Errorf("EncodeRoute(%d) = %d", out, b)
		}
	}
}

func TestEncodeRoutePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("EncodeRoute(16) did not panic")
		}
	}()
	EncodeRoute(Ports)
}

// connect opens a circuit the way the network's wormhole walk does: the
// route command arrives at at, arbitration waits for the output to free
// up, and the output stays claimed for the route setup plus hold. It
// returns when the circuit stands.
func connect(x *Crossbar, at sim.Time, out int, hold sim.Time) (setup sim.Time) {
	start := sim.Max(at, x.OutputFreeAt(out))
	x.HoldOutput(at, start, start+RouteSetup+hold, out)
	return start + RouteSetup
}

func TestCollisionFreeSetup(t *testing.T) {
	x := New("x0")
	setup := connect(&x, 0, 3, sim.Microsecond)
	if setup != RouteSetup {
		t.Errorf("collision-free setup = %v, want %v", setup, RouteSetup)
	}
	if s := x.Stats(); s.Opened != 1 || s.Blocked != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestOutputContentionSerializes(t *testing.T) {
	x := New("x0")
	hold := 2 * sim.Microsecond
	s1 := connect(&x, 0, 5, hold)
	s2 := connect(&x, 0, 5, hold)
	// Second circuit waits for the first's hold plus its own setup.
	want := RouteSetup + hold + RouteSetup
	if s2 != want {
		t.Errorf("contended setup = %v, want %v", s2, want)
	}
	if s2 <= s1 {
		t.Error("contended circuit not delayed")
	}
	if x.Stats().Blocked != 1 {
		t.Errorf("Blocked = %d, want 1", x.Stats().Blocked)
	}
}

func TestDistinctOutputsIndependent(t *testing.T) {
	x := New("x0")
	s1 := connect(&x, 0, 1, sim.Microsecond)
	s2 := connect(&x, 0, 2, sim.Microsecond)
	if s1 != s2 {
		t.Errorf("independent outputs interfered: %v vs %v", s1, s2)
	}
}

func TestOutputHoldAccounting(t *testing.T) {
	x := New("x0")
	connect(&x, 0, 7, sim.Microsecond)
	want := RouteSetup + sim.Microsecond
	if got := x.OutputFreeAt(7); got != want {
		t.Errorf("OutputFreeAt = %v, want %v", got, want)
	}
	x.Reset()
	if x.OutputFreeAt(7) != 0 || x.Stats().Opened != 0 {
		t.Error("Reset incomplete")
	}
}

func TestConnectPanicsOutOfRange(t *testing.T) {
	x := New("x0")
	defer func() {
		if recover() == nil {
			t.Error("connect to output -1 did not panic")
		}
	}()
	connect(&x, 0, -1, 0)
}

// Property: setup is never before at+RouteSetup, and circuits on one
// output never overlap.
func TestCircuitNonOverlapProperty(t *testing.T) {
	f := func(holds []uint16) bool {
		x := New("p")
		var prevEnd sim.Time
		for _, h := range holds {
			hold := sim.Time(h) * sim.Nanosecond
			setup := connect(&x, 0, 0, hold)
			start := setup - RouteSetup
			if start < prevEnd {
				return false
			}
			prevEnd = setup + hold
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOutputFreeAtAndHoldOutput(t *testing.T) {
	x := New("x0")
	if x.OutputFreeAt(3) != 0 {
		t.Error("fresh output not free at 0")
	}
	// Collision-free hold: requested == start, no block counted.
	x.HoldOutput(100, 100, 2*sim.Microsecond, 3)
	if x.OutputFreeAt(3) != 2*sim.Microsecond {
		t.Errorf("FreeAt = %v", x.OutputFreeAt(3))
	}
	if s := x.Stats(); s.Opened != 1 || s.Blocked != 0 {
		t.Errorf("stats = %+v", s)
	}
	// Waited hold: start after requested counts as blocked.
	x.HoldOutput(sim.Microsecond, 2*sim.Microsecond, 3*sim.Microsecond, 3)
	if s := x.Stats(); s.Blocked != 1 {
		t.Errorf("Blocked = %d, want 1", s.Blocked)
	}
}

func TestHoldOutputPanics(t *testing.T) {
	x := New("x0")
	cases := []func(){
		func() { x.HoldOutput(0, 10, 5, 0) }, // inverted window
		func() { x.HoldOutput(0, 0, 1, 16) }, // port out of range
		func() { x.HoldOutput(0, 0, 1, -1) },
		func() { x.ClaimOutput(0, 1, Ports) },
		func() { x.OutputFreeAt(-1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}
