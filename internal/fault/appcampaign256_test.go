package fault

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powermanna/internal/earth"
	"powermanna/internal/metrics"
	"powermanna/internal/netsim"
	"powermanna/internal/topo"
	"powermanna/internal/xbar"
)

// TestAppCampaignsOnSystem256 runs every application campaign over the
// full 16x16-cluster machine: the workloads must still verify their
// results while plane-A uplinks die, and the failover counters must show
// plane B carried the displaced traffic. This is the scale the paper's
// duplicated-network argument is about — Cluster8 exercises the
// protocol, System256 exercises it across the central stage.
func TestAppCampaignsOnSystem256(t *testing.T) {
	for _, c := range AppCampaigns() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			r, err := RunApp(c, Options{Seed: 1, Topology: topo.System256()})
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Options.Topology.Name(); got != "system256" {
				t.Fatalf("ran on %s", got)
			}
			last := r.Rows[len(r.Rows)-1]
			if last.FailedOver == 0 {
				t.Error("highest rate: nothing failed over to plane B")
			}
			for i, row := range r.Rows {
				if row.Inflation < 1 {
					t.Errorf("row %d inflation = %.3f, below baseline", i, row.Inflation)
				}
				if c.PartWorkload != nil {
					// Partitioned rows carry no background OS stream (the
					// lazy injector needs the global send order).
					if row.OSMessages != 0 {
						t.Errorf("row %d: partitioned row reports %d OS messages", i, row.OSMessages)
					}
				} else if row.OSMessages == 0 {
					t.Errorf("row %d: OS stream absent", i)
				}
			}
			// Same contract as Cluster8: byte-identical rerun.
			again, err := RunApp(c, Options{Seed: 1, Topology: topo.System256()})
			if err != nil {
				t.Fatal(err)
			}
			if r.Render() != again.Render() {
				t.Error("System256 rerun rendered differently")
			}
		})
	}
}

// TestAppCampaignSystem256Golden pins heat-linkcut over System256
// against the golden TestDatapathGoldens compares cmd/pmfault stdout
// to.
func TestAppCampaignSystem256Golden(t *testing.T) {
	golden := filepath.Join("..", "..", "testdata", "pmfault_heat-linkcut_system256_seed1.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with: go run ./cmd/pmfault --campaign heat-linkcut --topo system256 --seed 1 > %s)", err, golden)
	}
	c, _ := AppCampaignByName("heat-linkcut")
	r, err := RunApp(c, Options{Seed: 1, Topology: topo.System256()})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Render(); got != string(want) {
		t.Errorf("campaign output diverged from %s;\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestCampaignMetricsHook checks Options.Metrics: the registry receives
// the highest-rate row's readings, they agree with the degradation row,
// and the dump is deterministic.
func TestCampaignMetricsHook(t *testing.T) {
	c, _ := CampaignByName("link-cut")
	reg := metrics.NewRegistry()
	r, err := Run(c, Options{Seed: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	last := r.Rows[len(r.Rows)-1]
	if got := reg.Counter(netsim.MetricSends).Value(); got != int64(r.Options.Messages) {
		t.Errorf("send counter = %d, want %d (highest-rate row only)", got, r.Options.Messages)
	}
	if got := reg.Counter(netsim.MetricDelivered).Value(); got != int64(last.Delivered) {
		t.Errorf("delivered counter = %d, row says %d", got, last.Delivered)
	}
	if got := reg.Counter(netsim.MetricRetried).Value(); got != int64(last.Retried) {
		t.Errorf("retried counter = %d, row says %d", got, last.Retried)
	}
	if got := reg.Counter(netsim.MetricPlaneDownHits).Value(); got != int64(last.Skipped) {
		t.Errorf("plane-down counter = %d, row says %d", got, last.Skipped)
	}
	lat := reg.TimeHistogram(netsim.MetricSendLatency, nil)
	if lat.Count() != int64(last.Delivered) {
		t.Errorf("latency histogram holds %d observations, want %d", lat.Count(), last.Delivered)
	}
	if reg.TimeHistogram(netsim.MetricDetection, nil).Count() == 0 {
		t.Error("no detection windows observed despite failovers")
	}
	if reg.TimeHistogram(xbar.MetricArbWait, nil).Count() == 0 {
		t.Error("no arbitration waits observed")
	}
	dump := reg.Render()
	if !strings.Contains(dump, netsim.MetricSendLatency) {
		t.Errorf("dump missing %s:\n%s", netsim.MetricSendLatency, dump)
	}

	reg2 := metrics.NewRegistry()
	if _, err := Run(c, Options{Seed: 1, Metrics: reg2}); err != nil {
		t.Fatal(err)
	}
	if dump != reg2.Render() {
		t.Error("two seed-1 runs dumped different metrics")
	}
}

// TestAppCampaignMetricsHook checks the EARTH branch of the hook: a
// fib-linkcut run must feed the runtime's earth.* instruments alongside
// the network's.
func TestAppCampaignMetricsHook(t *testing.T) {
	c, _ := AppCampaignByName("fib-linkcut")
	reg := metrics.NewRegistry()
	if _, err := RunApp(c, Options{Seed: 1, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	if reg.Counter(earth.MetricTokensRemote).Value() == 0 {
		t.Error("no remote tokens counted")
	}
	if reg.TimeHistogram(earth.MetricTokenLatency, nil).Count() == 0 {
		t.Error("no token latencies observed")
	}
	if reg.Gauge(earth.MetricReadyPeak).Value() == 0 {
		t.Error("ready-queue peak never raised")
	}
	if reg.TimeHistogram(earth.MetricFiberDwell, nil).Count() == 0 {
		t.Error("no fiber dwell times observed")
	}
	if reg.Counter(netsim.MetricSends).Value() == 0 {
		t.Error("network instruments not attached through the runtime")
	}
}
