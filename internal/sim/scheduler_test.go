package sim

import (
	"testing"
	"testing/quick"
)

func TestSchedulerOrdersByTime(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("dispatch order = %v, want [1 2 3]", order)
	}
	if s.Now() != 30 {
		t.Errorf("Now() = %v after run, want 30", s.Now())
	}
	if s.Steps() != 3 {
		t.Errorf("Steps() = %d, want 3", s.Steps())
	}
}

func TestSchedulerFIFOAtEqualTimes(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(100, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events out of scheduling order: %v", order)
		}
	}
}

func TestSchedulerAfterAndNesting(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	s.At(10, func() {
		fired = append(fired, s.Now())
		s.After(5, func() { fired = append(fired, s.Now()) })
	})
	s.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Errorf("fired = %v, want [10 15]", fired)
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	s.At(5, func() {})
}

// Property: any batch of events dispatches in nondecreasing time order.
func TestSchedulerMonotoneProperty(t *testing.T) {
	f := func(times []uint16) bool {
		s := NewScheduler()
		var seen []Time
		for _, raw := range times {
			at := Time(raw)
			s.At(at, func() { seen = append(seen, s.Now()) })
		}
		s.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(times)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSchedulerStepAllocatesNothing pins the sequential queue to zero
// heap allocations per event once it has grown: At plus Step through
// slot reuse, and a Run entered from inside an event.
func TestSchedulerStepAllocatesNothing(t *testing.T) {
	s := NewScheduler()
	fired := 0
	tick := func() { fired++ }
	for i := Time(0); i < 64; i++ {
		s.At(i, tick)
	}
	step := func() {
		s.After(64, tick)
		s.Step()
	}
	for i := 0; i < 64; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("%v allocations per At+Step, want 0", allocs)
	}
	nested := func() {
		s.After(1, tick)
		s.After(1, tick)
		s.Run() // drains the queue from inside this event
	}
	reentrant := func() {
		s.After(1, nested)
		s.Run()
	}
	reentrant()
	if allocs := testing.AllocsPerRun(100, reentrant); allocs != 0 {
		t.Errorf("%v allocations per reentrant Run, want 0", allocs)
	}
	if at, ok := s.NextAt(); ok {
		t.Errorf("an event at %v is still queued after Run", at)
	}
	// 64 warm-up steps, 1001 measured ones, the 64 events they left
	// pending, and two ticks per nested Run.
	if want := 64 + 1001 + 64 + 2*102; fired != want {
		t.Errorf("fired %d events, want %d", fired, want)
	}
}

// BenchmarkSchedulerStep is one At plus one Step on a scheduler holding
// 4096 pending events: the per-event cost of the queue, the twin of
// internal/psim's BenchmarkShardStep.
func BenchmarkSchedulerStep(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	x := uint64(1)
	next := func() Time {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return Time(x % 1_000_000)
	}
	for i := 0; i < 4096; i++ {
		s.At(next(), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(s.Now()+next(), fn)
		s.Step()
	}
}

func TestResourceQueuing(t *testing.T) {
	var r Resource
	// Back-to-back acquisitions queue up.
	if start := r.Acquire(0, 10); start != 0 {
		t.Errorf("first start = %v, want 0", start)
	}
	if start := r.Acquire(0, 10); start != 10 {
		t.Errorf("second start = %v, want 10", start)
	}
	// A later arrival with idle gap starts immediately.
	if start := r.Acquire(100, 10); start != 100 {
		t.Errorf("idle-gap start = %v, want 100", start)
	}
	if start := r.Acquire(100, 5); start != 110 {
		t.Errorf("queued start = %v, want 110 (resource busy until 110)", start)
	}
	r.Reset()
	if r.FreeAt() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestPipelinedOverlap(t *testing.T) {
	p := Pipelined{Interval: 2, Latency: 20}
	// Three requests at t=0 complete at 20, 22, 24: initiation staggers by
	// the interval, latency overlaps.
	d1 := p.Acquire(0)
	d2 := p.Acquire(0)
	d3 := p.Acquire(0)
	if d1 != 20 || d2 != 22 || d3 != 24 {
		t.Errorf("pipelined completions = %v %v %v, want 20 22 24", d1, d2, d3)
	}
	p.Reset()
	if got := p.Acquire(100); got != 120 {
		t.Errorf("after reset Acquire(100) = %v, want 120", got)
	}
}

// Property: resource never starts a request before its arrival, and
// the busy time it grants never exceeds the window when requests
// arrive in order.
func TestResourceProperty(t *testing.T) {
	f := func(durs []uint8) bool {
		var r Resource
		var at, busy Time
		for _, d := range durs {
			start := r.Acquire(at, Time(d))
			if start < at {
				return false
			}
			at = start // arrivals non-decreasing
			busy += Time(d)
		}
		return busy <= r.FreeAt()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
