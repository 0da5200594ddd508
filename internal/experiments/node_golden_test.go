package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powermanna/internal/psim"
)

// quickRuns memoizes quick-mode results by experiment ID, so the shape
// tests and the node golden share one run of each multi-second sweep.
var quickRuns = map[string]Result{}

func quickRun(id string) Result {
	if r, ok := quickRuns[id]; ok {
		return r
	}
	run, ok := ByID(id)
	if !ok {
		panic("unknown experiment " + id)
	}
	r := run(quick)
	quickRuns[id] = r
	return r
}

// figureGoldens pins every paper experiment at quick size, split by the
// model that drives it: the node model (HINT, MatMult, SMP speedup and
// the node scalability ablation) and the rest (the hardware table, the
// NI and crossbar microbenchmarks, the communication figures over the
// synchronous datapath and the ablations).
var figureGoldens = []struct {
	golden string
	ids    []string
}{
	{"pmbench_node_quick.golden", []string{"fig6a", "fig6b", "fig7a", "fig7b", "fig8a", "fig8b", "nodescale"}},
	{"pmbench_rest_quick.golden", []string{"table1", "fig5", "fig9", "fig10", "fig11", "fig12",
		"blocking", "dispatcher", "smartni", "fifosweep", "duallink", "faultsweep"}},
}

// TestNodeFiguresGolden pins the paper figures byte for byte against
// the output of cmd/pmbench, which prints each Render followed by a
// newline — under the sequential engine and again under psim.Par,
// where the independent series of the node figures, nodescale and
// faultsweep run one psim shard each. CI runs it under -race, so the
// parallel rows are also checked for data races.
func TestNodeFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	for _, g := range figureGoldens {
		t.Run(strings.TrimSuffix(g.golden, ".golden"), func(t *testing.T) {
			golden := filepath.Join("..", "..", "testdata", g.golden)
			regen := "go run ./cmd/pmbench --exp " + strings.Join(g.ids, ",") + " > " + filepath.Join("testdata", g.golden)
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden: %v (regenerate with: %s)", err, regen)
			}
			for _, eng := range []psim.Kind{psim.Seq, psim.Par} {
				t.Run(eng.String(), func(t *testing.T) {
					var b strings.Builder
					for _, id := range g.ids {
						r := quickRun(id)
						if eng == psim.Par {
							run, _ := ByID(id)
							r = run(Options{Quick: true, Engine: psim.Par})
						}
						b.WriteString(r.Render())
						b.WriteString("\n")
					}
					if got := b.String(); got != string(want) {
						t.Errorf("figures under --engine %s diverged from %s (regenerate with: %s);\ngot:\n%s", eng, golden, regen, got)
					}
				})
			}
		})
	}
}
