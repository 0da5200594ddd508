//go:build !race

package earth

import (
	"testing"

	"powermanna/internal/topo"
)

// TestFibAllocatesNothingPerFiber pins the runtime's steady state: a
// fiber's Ctx, its arguments, its sync slot and its reschedule are all
// reused or stored inline, so the allocations of a fib run grow far
// slower than its fiber count. The test compares fib(16) with fib(12)
// on System256, so the build cost of each run cancels, and allows the
// growth of the shared memory and slot maps and of the ready rings and
// event queue. The race detector changes allocation counts, so the
// file does not build under -race.
func TestFibAllocatesNothingPerFiber(t *testing.T) {
	tp := topo.System256()
	run := func(n int64) (allocs float64, fibers int64) {
		allocs = testing.AllocsPerRun(2, func() {
			s := New(tp, DefaultParams())
			if _, _, err := RunFib(s, n); err != nil {
				t.Fatal(err)
			}
			fibers = s.Stats().FibersRun
		})
		return allocs, fibers
	}
	a16, f16 := run(16)
	a12, f12 := run(12)
	if per := (a16 - a12) / float64(f16-f12); per >= 0.05 {
		t.Errorf("fib(16) %.0f allocs over %d fibers, fib(12) %.0f over %d: %.3f allocs per fiber, want < 0.05",
			a16, f16, a12, f12, per)
	}
}

// BenchmarkFib runs fib(16) on System256, the fib-linkcut campaign's
// fault-free row: system build, fiber dispatch, sync slots and token
// transit through the per-node transports.
func BenchmarkFib(b *testing.B) {
	tp := topo.System256()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := RunFib(New(tp, DefaultParams()), 16); err != nil {
			b.Fatal(err)
		}
	}
}
