package sim

import "fmt"

// Clock describes a clock domain by its period. The PowerMANNA node has two
// primary domains — the 180 MHz processor clock and the 60 MHz board/link
// clock — and the comparison machines add their own (SUN: 168/84 MHz,
// Pentium II: 180 or 266 / 60 or 66 MHz).
type Clock struct {
	// Period is the duration of one cycle in picoseconds.
	Period Time
}

// ClockMHz builds a clock domain from a frequency in MHz.
// It panics for non-positive frequencies: a zero clock is always a
// configuration bug, never a usable model.
func ClockMHz(mhz float64) Clock {
	if mhz <= 0 {
		panic(fmt.Sprintf("sim: non-positive clock frequency %g MHz", mhz))
	}
	return Clock{Period: Time(1e6/mhz + 0.5)}
}

// MHz reports the clock frequency in MHz.
func (c Clock) MHz() float64 { return 1e6 / float64(c.Period) }

// Cycles converts a cycle count to simulated time.
func (c Clock) Cycles(n int64) Time { return Time(n) * c.Period }

// CyclesF converts a fractional cycle count to simulated time, rounding up
// to a whole picosecond.
func (c Clock) CyclesF(n float64) Time { return Time(n*float64(c.Period) + 0.9999) }

// ToCycles converts a duration to a whole number of cycles, rounding up —
// the convention for synchronous hardware, where an operation occupying any
// part of a cycle occupies all of it.
func (c Clock) ToCycles(t Time) int64 {
	if t <= 0 {
		return 0
	}
	return int64((t + c.Period - 1) / c.Period)
}

// String renders the clock's frequency.
func (c Clock) String() string { return fmt.Sprintf("%.4gMHz", c.MHz()) }
