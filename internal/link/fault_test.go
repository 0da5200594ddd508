package link

import (
	"testing"

	"powermanna/internal/sim"
)

func TestCutAtEarliestWins(t *testing.T) {
	w := new(Wire)
	if _, cut := w.CutTime(); cut {
		t.Fatal("fresh wire reports a cut")
	}
	w.CutAt(5 * sim.Microsecond)
	w.CutAt(2 * sim.Microsecond)
	w.CutAt(9 * sim.Microsecond) // once dead, always dead
	at, cut := w.CutTime()
	if !cut || at != 2*sim.Microsecond {
		t.Errorf("CutTime = %v, %v; want 2us, true", at, cut)
	}
	if w.DeadAt(1 * sim.Microsecond) {
		t.Error("wire dead before the cut")
	}
	if !w.DeadAt(2 * sim.Microsecond) {
		t.Error("wire alive at the cut instant")
	}
}

func TestCorruptWindowOverlap(t *testing.T) {
	w := new(Wire)
	w.CorruptBetween(10*sim.Microsecond, 20*sim.Microsecond)
	w.CorruptBetween(30*sim.Microsecond, 30*sim.Microsecond) // empty, ignored
	cases := []struct {
		from, until sim.Time
		want        bool
	}{
		{0, 5 * sim.Microsecond, false},
		{0, 10 * sim.Microsecond, true}, // touches window start
		{15 * sim.Microsecond, 16 * sim.Microsecond, true},
		{19 * sim.Microsecond, 25 * sim.Microsecond, true},
		{20 * sim.Microsecond, 25 * sim.Microsecond, false}, // window is half-open
		{29 * sim.Microsecond, 31 * sim.Microsecond, false},
	}
	for _, c := range cases {
		if got := w.CorruptedIn(c.from, c.until); got != c.want {
			t.Errorf("CorruptedIn(%v, %v) = %v, want %v", c.from, c.until, got, c.want)
		}
	}
}

func TestResetClearsFaults(t *testing.T) {
	w := new(Wire)
	w.CutAt(1 * sim.Microsecond)
	w.CorruptBetween(0, 1*sim.Microsecond)
	w.Reset()
	if _, cut := w.CutTime(); cut {
		t.Error("Reset kept the cut")
	}
	if w.CorruptedIn(0, 2*sim.Microsecond) {
		t.Error("Reset kept corruption windows")
	}
}
