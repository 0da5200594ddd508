package fault

import (
	"os"
	"path/filepath"
	"testing"

	"powermanna/internal/psim"
	"powermanna/internal/topo"
	"powermanna/internal/traffic"
)

// TestTrafficCampaignGolden pins the System256 traffic sweep against
// the same golden TestDatapathGoldens compares `pmfault --traffic`
// stdout to.
func TestTrafficCampaignGolden(t *testing.T) {
	golden := filepath.Join("..", "..", "testdata", "pmfault_traffic_system256_seed1.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with: go run ./cmd/pmfault --traffic --topo system256 --seed 1 > %s)", err, golden)
	}
	r, err := RunTraffic(traffic.DefaultMix(), 0, Options{Seed: 1, Topology: topo.System256()})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Render(); got != string(want) {
		t.Errorf("traffic campaign output diverged from %s;\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestTrafficCampaignEngineEquivalence checks the sweep's full render is
// byte-identical between the sequential engine and the parallel engine
// at 2 and 4 shards — the traffic engine's determinism contract
// composed through the campaign layer.
func TestTrafficCampaignEngineEquivalence(t *testing.T) {
	run := func(kind psim.Kind, shards int) string {
		r, err := RunTraffic(traffic.DefaultMix(), 0, Options{
			Seed: 1, Topology: topo.System256(), Engine: kind, Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r.Render()
	}
	seq := run(psim.Seq, 0)
	for _, shards := range []int{2, 4} {
		if par := run(psim.Par, shards); par != seq {
			t.Errorf("par --shards %d diverges from seq:\n--- seq\n%s\n--- par\n%s", shards, seq, par)
		}
	}
}

// TestTrafficCampaignNeverLosesMessages checks the redundancy claim at
// the traffic layer: with plane B healthy, plane-A faults convert
// deliveries into failovers, never into losses — offered equals
// delivered for every tenant at every rate, and the highest-rate row
// actually exercised the failover path.
func TestTrafficCampaignNeverLosesMessages(t *testing.T) {
	r, err := RunTraffic(traffic.DefaultMix(), 0, Options{Seed: 1, Topology: topo.System256()})
	if err != nil {
		t.Fatal(err)
	}
	for i, rate := range r.Rates {
		for _, ts := range r.Results[i].Tenants {
			if ts.Failed != 0 {
				t.Errorf("rate %d tenant %s: %d messages lost with plane B healthy", rate, ts.Name, ts.Failed)
			}
			if ts.Offered != ts.Delivered {
				t.Errorf("rate %d tenant %s: offered %d != delivered %d", rate, ts.Name, ts.Offered, ts.Delivered)
			}
		}
	}
	if down := r.PlaneA.Get("link-down"); down == 0 {
		t.Errorf("highest-rate row never hit a dead plane-A wire:\n%s", r.PlaneA.Render())
	}
	if fo := r.PlaneA.Get("failed-over"); fo == 0 {
		t.Errorf("highest-rate row never failed over:\n%s", r.PlaneA.Render())
	}
}
