package matmult_test

import (
	"testing"

	"powermanna/internal/cache"
	"powermanna/internal/machine"
	"powermanna/internal/matmult"
	"powermanna/internal/node"
)

// stats collects every cache's counters on a node.
func stats(nd *node.Node) []cache.Stats {
	var s []cache.Stats
	for _, p := range nd.Procs() {
		s = append(s, p.L1().Stats(), p.L2().Stats(), p.TLB().Stats())
	}
	return s
}

// TestHitRunsMatchPerElement checks that committing same-line hit runs in
// one call changes nothing a 1-CPU run reports: the result (time and
// checksum) and every cache's counters equal those of the run that makes
// every access through Proc.Access, on the three machines of Figure 7.
func TestHitRunsMatchPerElement(t *testing.T) {
	for _, cfg := range []node.Config{machine.PowerMANNA(), machine.SunUltra(), machine.PentiumII(180)} {
		nd := node.New(cfg)
		for _, v := range []matmult.Version{matmult.Naive, matmult.Transposed} {
			for _, n := range []int{65, 101} {
				got := matmult.Run(nd, n, v, 1)
				gotStats := stats(nd)
				want := matmult.RunPerElement(nd, n, v)
				wantStats := stats(nd)
				if got != want {
					t.Errorf("%s %s N=%d: batched %+v, per element %+v", cfg.Name, v, n, got, want)
				}
				for i := range gotStats {
					if gotStats[i] != wantStats[i] {
						t.Errorf("%s %s N=%d: cache %d stats batched %+v, per element %+v", cfg.Name, v, n, i, gotStats[i], wantStats[i])
					}
				}
			}
		}
	}
}
