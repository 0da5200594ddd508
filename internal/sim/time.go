// Package sim provides the discrete-event simulation kernel used by every
// timing model in the PowerMANNA reproduction: simulated time, clock
// domains, an event scheduler, and busy-timeline resources.
//
// Simulated time is an integer picosecond count. Picoseconds are fine
// enough to express every clock domain in the paper exactly enough for
// shape reproduction (a 180 MHz CPU cycle is 5555 ps, a 60 MHz bus/link
// cycle is 16666 ps) while keeping all arithmetic in int64 — a simulation
// can cover more than one hundred simulated days before overflow.
//
// All models in this repository are deterministic: no wall-clock reads, no
// map-iteration-order dependence in any timing path, and any randomness is
// seeded explicitly.
package sim

import "fmt"

// Time is a point in (or duration of) simulated time, in picoseconds.
type Time int64

// Duration constants in simulated time.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts t to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Nanos converts t to floating-point nanoseconds.
func (t Time) Nanos() float64 { return float64(t) / float64(Nanosecond) }

// String renders the time with an adaptive unit, e.g. "2.75us".
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.3gns", t.Nanos())
	case t < Millisecond:
		return fmt.Sprintf("%.4gus", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.4gms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.4gs", t.Seconds())
	}
}

// MaxTime is the largest representable simulated time — "never" for
// horizon comparisons; the parallel engine uses it as the unbounded
// window end.
const MaxTime = Time(1<<63 - 1)

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Min returns the earlier of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}
