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

// goldenRun is one CLI invocation whose stdout must equal a golden.
type goldenRun struct {
	cmd    string
	args   []string
	golden string
}

// checkGolden runs the CLI with args and compares stdout byte for byte
// with testdata/<golden>; regen are the arguments that regenerate it.
func checkGolden(t *testing.T, c goldenRun, regen []string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", c.golden))
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Command(buildCLI(t, c.cmd), c.args...).Output()
	if err != nil {
		t.Errorf("%s %s: %v", c.cmd, strings.Join(c.args, " "), err)
		return
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s %s diverged from testdata/%s at %s\nif the change is intended, regenerate with: go run ./cmd/%s %s > testdata/%s",
			c.cmd, strings.Join(c.args, " "), c.golden, firstDiff(got, want),
			c.cmd, strings.Join(regen, " "), c.golden)
	}
}

// TestDatapathGoldens runs the golden CLI runs that exercise the
// split-phase datapath — System256 traffic under faults, the pmstat
// service report with its metrics dump, the windowed pmstat telemetry
// and the partitioned heat campaign — and compares stdout byte for byte
// with testdata/, on the sequential engine and partitioned across psim
// shards (4 on System256; the Cluster8 report runs at the default shard
// count).
func TestDatapathGoldens(t *testing.T) {
	shards4 := []string{"--engine", "par", "--shards", "4"}
	cases := []struct {
		goldenRun
		par []string
	}{
		{goldenRun{"pmfault", []string{"--traffic", "--topo", "system256", "--seed", "1"}, "pmfault_traffic_system256_seed1.golden"}, shards4},
		{goldenRun{"pmstat", []string{"--format", "report", "--mix", "default", "--seed", "1", "--metrics"}, "pmstat_report_default_metrics_seed1.golden"}, []string{"--engine", "par"}},
		{goldenRun{"pmstat", []string{"--campaign", "link-cut", "--faults", "8", "--topo", "system256", "--seed", "1"}, "pmstat_default_system256_seed1.golden"}, shards4},
		{goldenRun{"pmfault", []string{"--campaign", "heat-linkcut", "--topo", "system256", "--seed", "1"}, "pmfault_heat-linkcut_system256_seed1.golden"}, shards4},
	}
	for _, c := range cases {
		checkGolden(t, c.goldenRun, c.args)
		par := c.goldenRun
		par.args = append(append([]string(nil), c.args...), c.par...)
		checkGolden(t, par, c.args)
	}
}

// TestCampaignGoldens runs the pinned fault campaigns on the sequential
// engine — every synthetic degradation table (link cuts, stuck outputs,
// CRC corruption, NI stalls, central-stage cuts and the mixed campaign
// that loses messages on both planes), the three application campaigns
// and the --metrics dumps (counters and histograms, the EARTH tenant's
// included, must be as reproducible as the tables) — and compares stdout
// byte for byte with testdata/.
func TestCampaignGoldens(t *testing.T) {
	for _, c := range campaignGoldens {
		checkGolden(t, c, c.args)
	}
}

// campaignGoldens are the pmfault campaign runs pinned against goldens.
var campaignGoldens = []goldenRun{
	{"pmfault", []string{"--campaign", "link-cut", "--seed", "1"}, "pmfault_link-cut_seed1.golden"},
	{"pmfault", []string{"--campaign", "heat-linkcut", "--seed", "1"}, "pmfault_heat-linkcut_seed1.golden"},
	{"pmfault", []string{"--campaign", "central-cut", "--seed", "1"}, "pmfault_central-cut_seed1.golden"},
	{"pmfault", []string{"--campaign", "xbar-stuck", "--seed", "1"}, "pmfault_xbar-stuck_seed1.golden"},
	{"pmfault", []string{"--campaign", "flit-corrupt", "--seed", "1"}, "pmfault_flit-corrupt_seed1.golden"},
	{"pmfault", []string{"--campaign", "ni-stall", "--seed", "1"}, "pmfault_ni-stall_seed1.golden"},
	{"pmfault", []string{"--campaign", "mixed", "--seed", "1"}, "pmfault_mixed_seed1.golden"},
	{"pmfault", []string{"--campaign", "allreduce-linkcut", "--seed", "1"}, "pmfault_allreduce-linkcut_seed1.golden"},
	{"pmfault", []string{"--campaign", "fib-linkcut", "--seed", "1"}, "pmfault_fib-linkcut_seed1.golden"},
	{"pmfault", []string{"--campaign", "link-cut", "--seed", "1", "--metrics"}, "pmfault_link-cut_metrics_seed1.golden"},
	{"pmfault", []string{"--campaign", "heat-linkcut", "--seed", "1", "--metrics"}, "pmfault_heat-linkcut_metrics_seed1.golden"},
	{"pmfault", []string{"--campaign", "fib-linkcut", "--seed", "1", "--metrics"}, "pmfault_fib-linkcut_metrics_seed1.golden"},
}

// TestTraceGoldens pins pmtrace's exports and analytics byte for byte:
// the pingpong Chrome trace, its utilization series and its two-seed
// diff, the EARTH fib timeline (fibers, tokens and the OS stream) and
// the sequential link-cut campaign timeline.
func TestTraceGoldens(t *testing.T) {
	for _, c := range []goldenRun{
		{"pmtrace", []string{"--run", "pingpong", "--seed", "1"}, "pmtrace_pingpong_seed1.golden"},
		{"pmtrace", []string{"--run", "pingpong", "--format", "utilization", "--seed", "1"}, "pmtrace_pingpong_utilization_seed1.golden"},
		{"pmtrace", []string{"--run", "pingpong", "--format", "diff", "--seed", "1", "--seed2", "2"}, "pmtrace_pingpong_diff_seed1_seed2.golden"},
		{"pmtrace", []string{"--run", "fib", "--seed", "1"}, "pmtrace_fib_seed1.golden"},
		{"pmtrace", []string{"--campaign", "link-cut", "--seed", "1", "--messages", "60"}, "pmtrace_link-cut_seed1.golden"},
	} {
		checkGolden(t, c, c.args)
	}
}

// TestNodeToolGoldens pins the single-configuration tools: pmsim's
// MatMult, HINT and communication reports and pmtopo's route listing
// and three-crossbar validation.
func TestNodeToolGoldens(t *testing.T) {
	for _, c := range []goldenRun{
		{"pmsim", []string{"-machine", "pm", "-bench", "matmult", "-n", "65", "-cpus", "2"}, "pmsim_pm_matmult_n65_cpus2.golden"},
		{"pmsim", []string{"-machine", "sun", "-bench", "hint", "-type", "int", "-intervals", "2000"}, "pmsim_sun_hint_int_intervals2000.golden"},
		{"pmsim", []string{"-bench", "comm", "-n", "8"}, "pmsim_comm_n8.golden"},
		{"pmtopo", []string{"-topo", "system256", "-src", "0", "-dst", "127", "-net", "1", "-bytes", "64"}, "pmtopo_system256_route_0_127_net1.golden"},
		{"pmtopo", []string{"-topo", "system256", "-validate"}, "pmtopo_system256_validate.golden"},
	} {
		checkGolden(t, c, c.args)
	}
}

// TestParallelEngineGoldens reruns the pinned campaigns — degradation
// tables, both metrics dumps and a Chrome trace timeline — on
// the lookahead-0 row engine (--engine par, one psim shard per rate
// row) against the goldens the sequential runs produce.
func TestParallelEngineGoldens(t *testing.T) {
	runs := append([]goldenRun(nil), campaignGoldens...)
	runs = append(runs, goldenRun{"pmtrace", []string{"--campaign", "link-cut", "--seed", "1", "--messages", "60"}, "pmtrace_link-cut_seed1.golden"})
	for _, c := range runs {
		regen := c.args
		c.args = append(append([]string(nil), c.args...), "--engine", "par")
		checkGolden(t, c, regen)
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
