package powermanna_test

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestDatapathGoldens runs the golden CLI runs that exercise the
// split-phase datapath — System256 traffic under faults, the pmtraffic
// metrics dump, the windowed pmstat telemetry and the partitioned heat
// campaign — and compares stdout byte for byte with testdata/, on the
// sequential engine and (except pmtraffic) partitioned across 4 psim
// shards.
func TestDatapathGoldens(t *testing.T) {
	cases := []struct {
		cmd    string
		args   []string
		golden string
		par    bool
	}{
		{"pmfault", []string{"--traffic", "--topo", "system256", "--seed", "1"}, "pmfault_traffic_system256_seed1.golden", true},
		{"pmtraffic", []string{"--mix", "default", "--seed", "1", "--metrics"}, "pmtraffic_default_metrics_seed1.golden", false},
		{"pmstat", []string{"--campaign", "link-cut", "--faults", "8", "--topo", "system256", "--seed", "1"}, "pmstat_default_system256_seed1.golden", true},
		{"pmfault", []string{"--campaign", "heat-linkcut", "--topo", "system256", "--seed", "1"}, "pmfault_heat-linkcut_system256_seed1.golden", true},
	}
	for _, c := range cases {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		exe := buildCLI(t, c.cmd)
		runs := [][]string{c.args}
		if c.par {
			runs = append(runs, append(append([]string(nil), c.args...), "--engine", "par", "--shards", "4"))
		}
		for _, args := range runs {
			got, err := exec.Command(exe, args...).Output()
			if err != nil {
				t.Errorf("%s %s: %v", c.cmd, strings.Join(args, " "), err)
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s %s diverged from testdata/%s at %s\nif the change is intended, regenerate with: go run ./cmd/%s %s > testdata/%s",
					c.cmd, strings.Join(args, " "), c.golden, firstDiff(got, want),
					c.cmd, strings.Join(c.args, " "), c.golden)
			}
		}
	}
}

// firstDiff describes the first line where got and want differ.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, gl, wl)
		}
	}
	return "end of output"
}
