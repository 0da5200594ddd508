//go:build !race

package mpl

import (
	"testing"

	"powermanna/internal/topo"
)

// TestAllReduceSteadyStateAllocs pins the collectives' steady state: an
// AllReduce round over System256 reduces into each rank's own
// accumulator and broadcasts into each rank's own vector, and every
// message rides a recycled record, so a warm round allocates nothing on
// any rank. Rank 0 measures while every rank runs the same rounds; with
// one shard all of them run on the measuring goroutine. The race
// detector changes allocation counts, so the file does not build under
// -race.
func TestAllReduceSteadyStateAllocs(t *testing.T) {
	const warm, runs = 4, 20
	w, err := NewPWorld(topo.System256(), 1)
	if err != nil {
		t.Fatalf("NewPWorld: %v", err)
	}
	p := float64(w.Ranks())
	var allocs float64
	err = w.Run(func(r *PRank) error {
		vec := []float64{float64(r.Rank() + 1), 1}
		round := 0
		reduce := func() error {
			round++
			got, err := r.AllReduce(vec, round)
			if err != nil {
				return err
			}
			if got[0] != p*(p+1)/2 || got[1] != p {
				t.Errorf("rank %d round %d: AllReduce = %v", r.Rank(), round, got)
			}
			return nil
		}
		for i := 0; i < warm; i++ {
			if err := reduce(); err != nil {
				return err
			}
		}
		if r.Rank() != 0 {
			// AllocsPerRun calls its function once more as a warm-up.
			for i := 0; i < runs+1; i++ {
				if err := reduce(); err != nil {
					return err
				}
			}
			return nil
		}
		var err error
		allocs = testing.AllocsPerRun(runs, func() {
			if e := reduce(); e != nil {
				err = e
			}
		})
		return err
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if allocs != 0 {
		t.Errorf("steady-state System256 AllReduce round = %.1f allocs, want 0", allocs)
	}
}
