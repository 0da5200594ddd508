package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// nodeGoldenIDs are the experiments driven by the node model: HINT,
// MatMult, SMP speedup and the node scalability ablation.
var nodeGoldenIDs = []string{"fig6a", "fig6b", "fig7a", "fig7b", "fig8a", "fig8b", "nodescale"}

// TestNodeFiguresGolden pins the node-model figures byte for byte against
// the output of cmd/pmbench, which prints each Render followed by a newline.
func TestNodeFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	golden := filepath.Join("..", "..", "testdata", "pmbench_node_quick.golden")
	regen := "go run ./cmd/pmbench --exp " + strings.Join(nodeGoldenIDs, ",") + " > " + filepath.Join("testdata", "pmbench_node_quick.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with: %s)", err, regen)
	}
	var b strings.Builder
	for _, id := range nodeGoldenIDs {
		b.WriteString(quickRun(id).Render())
		b.WriteString("\n")
	}
	if got := b.String(); got != string(want) {
		t.Errorf("node figures diverged from %s (regenerate with: %s);\ngot:\n%s", golden, regen, got)
	}
}
