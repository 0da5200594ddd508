package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	cases := []struct {
		in   Time
		secs float64
	}{
		{0, 0},
		{Second, 1},
		{Millisecond, 1e-3},
		{Microsecond, 1e-6},
		{Nanosecond, 1e-9},
		{Picosecond, 1e-12},
		{2750 * Nanosecond, 2.75e-6},
	}
	for _, c := range cases {
		if got := c.in.Seconds(); got != c.secs {
			t.Errorf("(%d).Seconds() = %g, want %g", int64(c.in), got, c.secs)
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{5 * Nanosecond, "5ns"},
		{2750 * Nanosecond, "2.75us"},
		{3 * Millisecond, "3ms"},
		{2 * Second, "2s"},
		{-5 * Nanosecond, "-5ns"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestMaxMin(t *testing.T) {
	if Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Error("Max wrong")
	}
	if Min(3, 5) != 3 || Min(5, 3) != 3 {
		t.Error("Min wrong")
	}
}

func TestClockMHz(t *testing.T) {
	c := ClockMHz(180)
	if c.Period != 5556 {
		t.Errorf("180MHz period = %d ps, want 5556", c.Period)
	}
	c60 := ClockMHz(60)
	if c60.Period != 16667 {
		t.Errorf("60MHz period = %d ps, want 16667", c60.Period)
	}
	if got := c60.Cycles(3); got != 3*16667 {
		t.Errorf("Cycles(3) = %d", got)
	}
	// Round-trip frequency within 0.01%.
	if mhz := c.MHz(); mhz < 179.98 || mhz > 180.02 {
		t.Errorf("MHz round trip = %g", mhz)
	}
}

func TestClockToCyclesRoundsUp(t *testing.T) {
	c := ClockMHz(100) // 10000 ps period
	cases := []struct {
		t    Time
		want int64
	}{
		{0, 0}, {-5, 0}, {1, 1}, {9999, 1}, {10000, 1}, {10001, 2}, {30000, 3},
	}
	for _, cse := range cases {
		if got := c.ToCycles(cse.t); got != cse.want {
			t.Errorf("ToCycles(%d) = %d, want %d", cse.t, got, cse.want)
		}
	}
}

// TestClockAlign checks that Cycles(ToCycles(t)) rounds t up to the
// next cycle boundary.
func TestClockAlign(t *testing.T) {
	c := ClockMHz(100)
	if got := c.Cycles(c.ToCycles(10001)); got != 20000 {
		t.Errorf("Cycles(ToCycles(10001)) = %d, want 20000", got)
	}
	if got := c.Cycles(c.ToCycles(20000)); got != 20000 {
		t.Errorf("Cycles(ToCycles(20000)) = %d, want 20000", got)
	}
}

func TestClockPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ClockMHz(0) did not panic")
		}
	}()
	ClockMHz(0)
}

// Property: ToCycles never undercounts — the cycles always cover the time.
func TestClockToCyclesCoversProperty(t *testing.T) {
	c := ClockMHz(60)
	f := func(raw int32) bool {
		t := Time(raw)
		if t < 0 {
			t = -t
		}
		n := c.ToCycles(t)
		return c.Cycles(n) >= t && (n == 0 || c.Cycles(n-1) < t)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
