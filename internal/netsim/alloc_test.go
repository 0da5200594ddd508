//go:build !race

package netsim

import (
	"testing"

	"powermanna/internal/topo"
)

// TestPartitionedBuildAllocs pins NewPartitioned's allocation count on
// System256 below a bound that does not grow with the fabric: all 1,024
// wired ports come from one slab and all 128 transports from another.
// The race detector changes allocation counts, so the file does not
// build under -race.
func TestPartitionedBuildAllocs(t *testing.T) {
	const bound = 64
	tp := topo.System256()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := NewPartitioned(tp, 1, DefaultFailover()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > bound {
		t.Errorf("NewPartitioned(System256) = %.0f allocs, want at most %d", allocs, bound)
	}
}
