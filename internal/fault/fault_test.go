package fault

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powermanna/internal/netsim"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
)

// TestCampaignDeterminism is the campaign half of the determinism
// contract: a campaign is a pure function of (spec, Options). The same
// seed must render byte-identically; a different seed must not.
func TestCampaignDeterminism(t *testing.T) {
	for _, c := range Campaigns() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			a, err := Run(c, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(c, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if a.Render() != b.Render() {
				t.Fatal("same seed rendered differently")
			}
			d, err := Run(c, Options{Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			if a.Render() == d.Render() {
				t.Fatal("seeds 1 and 2 rendered identically")
			}
		})
	}
}

// TestGoldenTable pins the default link-cut campaign against the same
// golden file TestCampaignGoldens compares cmd/pmfault stdout to —
// cmd/pmfault prints exactly Result.Render(), so drift is caught here too.
func TestGoldenTable(t *testing.T) {
	golden := filepath.Join("..", "..", "testdata", "pmfault_link-cut_seed1.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with: go run ./cmd/pmfault --campaign link-cut --seed 1 > %s)", err, golden)
	}
	c, _ := CampaignByName("link-cut")
	r, err := Run(c, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Render(); got != string(want) {
		t.Errorf("campaign output diverged from %s;\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestSinglePlaneCampaignsNeverLoseMessages checks the redundancy claim
// the campaigns exist to reproduce (Section 4): while plane B is healthy,
// every message completes — faults convert deliveries into failovers,
// never into losses — and nonzero fault rates actually exercise plane B.
func TestSinglePlaneCampaignsNeverLoseMessages(t *testing.T) {
	for _, c := range Campaigns() {
		if c.BothPlanes {
			continue
		}
		c := c
		t.Run(c.Name, func(t *testing.T) {
			r, err := Run(c, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			sawRetry := false
			for _, row := range r.Rows {
				if row.Failed != 0 {
					t.Errorf("rate %d: %d messages lost with plane B healthy", row.Faults, row.Failed)
				}
				if row.Delivered+row.Failed != r.Options.Messages {
					t.Errorf("rate %d: %d+%d messages, want %d", row.Faults, row.Delivered, row.Failed, r.Options.Messages)
				}
				if row.Faults == 0 && row.Retried != 0 {
					t.Errorf("fault-free row retried %d messages", row.Retried)
				}
				if row.Faults > 0 && row.Retried > 0 {
					sawRetry = true
				}
			}
			if !sawRetry {
				t.Error("no row exercised plane-B failover")
			}
			if r.PlaneB.Get("delivered") == 0 {
				t.Error("plane B delivered nothing at the highest rate")
			}
		})
	}
}

func TestLatencyInflationMonotoneForLinkCut(t *testing.T) {
	c, _ := CampaignByName("link-cut")
	r, err := Run(c, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Inflation < r.Rows[i-1].Inflation {
			t.Errorf("inflation not monotone: row %d = %.3f after %.3f",
				i, r.Rows[i].Inflation, r.Rows[i-1].Inflation)
		}
	}
	if r.Rows[0].Inflation != 1 {
		t.Errorf("baseline inflation = %.3f, want 1", r.Rows[0].Inflation)
	}
}

// TestAppCampaignDeterminism extends the campaign determinism contract
// to the application campaigns: same seed, byte-identical render;
// different seed, different fault schedule.
func TestAppCampaignDeterminism(t *testing.T) {
	for _, c := range AppCampaigns() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			a, err := RunApp(c, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunApp(c, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if a.Render() != b.Render() {
				t.Fatal("same seed rendered differently")
			}
			d, err := RunApp(c, Options{Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			if a.Render() == d.Render() {
				t.Fatal("seeds 1 and 2 rendered identically")
			}
		})
	}
}

// TestAppCampaignDegradation checks the shape the app campaigns exist to
// show: a clean baseline, growing makespan inflation under faults, the
// plane-down caches short-circuiting most of the failover overhead, and
// plane-B contention with the OS stream actually present.
func TestAppCampaignDegradation(t *testing.T) {
	for _, c := range AppCampaigns() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			r, err := RunApp(c, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			base := r.Rows[0]
			if base.Faults != 0 || base.Inflation != 1 || base.FailedOver != 0 || base.Skipped != 0 {
				t.Errorf("baseline row = %+v, want fault-free", base)
			}
			last := r.Rows[len(r.Rows)-1]
			if c.EarthWorkload == nil {
				// Message-passing workloads block on every receive, so
				// detection windows land on the critical path.
				if last.Inflation <= 1 {
					t.Errorf("highest rate inflation = %.3f, want > 1", last.Inflation)
				}
			} else if last.Inflation < 1 {
				// EARTH's split-phase tokens overlap communication with the
				// EU's fiber backlog: failover windows are absorbed off the
				// critical path, so the makespan may not inflate at all —
				// the latency-tolerance property of [18]. The failover
				// counters below still prove the faults were felt.
				t.Errorf("highest rate inflation = %.3f, below baseline", last.Inflation)
			}
			for i, row := range r.Rows {
				if row.Inflation < 1 {
					t.Errorf("row %d inflation = %.3f, below baseline", i, row.Inflation)
				}
				if row.Faults > 0 && row.FailedOver == 0 {
					t.Errorf("row %d: faults injected but nothing failed over", i)
				}
				if c.PartWorkload != nil {
					// Partitioned rows carry no background OS stream (the
					// lazy injector needs the global send order).
					if row.OSMessages != 0 {
						t.Errorf("row %d: partitioned row reports %d OS messages", i, row.OSMessages)
					}
				} else if row.OSMessages == 0 {
					t.Errorf("row %d: OS stream injected nothing", i)
				}
			}
			// The cache is what bends the curve: after the first detection
			// per (sender, plane), messages skip the dead plane at the
			// cached status-check cost, so cached skips must far outnumber
			// full detection windows.
			if last.Skipped <= last.FailedOver {
				t.Errorf("skipped %d vs failed-over %d: plane-down cache not carrying the load",
					last.Skipped, last.FailedOver)
			}
		})
	}
}

// TestAppCampaignGolden pins heat-linkcut at seed 1 against the golden
// TestCampaignGoldens compares cmd/pmfault stdout to.
func TestAppCampaignGolden(t *testing.T) {
	golden := filepath.Join("..", "..", "testdata", "pmfault_heat-linkcut_seed1.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with: go run ./cmd/pmfault --campaign heat-linkcut --seed 1 > %s)", err, golden)
	}
	c, _ := AppCampaignByName("heat-linkcut")
	r, err := RunApp(c, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Render(); got != string(want) {
		t.Errorf("campaign output diverged from %s;\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestAppCampaignValidation pins the rate-0-first requirement, the
// one-workload-kind requirement and name resolution.
func TestAppCampaignValidation(t *testing.T) {
	bad := AppCampaign{Name: "bad", Rates: []int{1}, PartWorkload: allreduceWorkload}
	if _, err := RunApp(bad, Options{Seed: 1}); err == nil {
		t.Error("campaign without a leading 0 rate accepted")
	}
	for _, kinds := range []AppCampaign{
		{Name: "none", Rates: []int{0}},
		{Name: "both", Rates: []int{0}, PartWorkload: allreduceWorkload, EarthWorkload: fibWorkload},
	} {
		if _, err := RunApp(kinds, Options{Seed: 1}); err == nil || !strings.Contains(err.Error(), "exactly one") {
			t.Errorf("campaign %q: workload-kind error = %v", kinds.Name, err)
		}
	}
	if _, ok := AppCampaignByName("no-such-campaign"); ok {
		t.Error("unknown app campaign resolved")
	}
	for _, c := range AppCampaigns() {
		got, ok := AppCampaignByName(c.Name)
		if !ok || got.Name != c.Name {
			t.Errorf("AppCampaignByName(%q) failed", c.Name)
		}
	}
}

func TestInjectorAppliesInTimeOrder(t *testing.T) {
	net := netsim.New(topo.Cluster8())
	events := []Event{
		{Kind: LinkCut, At: 30 * sim.Microsecond, Plane: topo.NetworkA, Node: 1},
		{Kind: LinkCut, At: 10 * sim.Microsecond, Plane: topo.NetworkA, Node: 0},
		{Kind: NIStall, At: 20 * sim.Microsecond, Until: 25 * sim.Microsecond, Plane: topo.NetworkA, Node: 2},
	}
	inj := NewInjector(net, events)
	if pending := len(inj.events) - inj.next; pending != 3 {
		t.Fatalf("pending = %d", pending)
	}
	if got := inj.Events()[0].Node; got != 0 {
		t.Errorf("schedule not sorted by time: first event node %d", got)
	}
	if fired := inj.ApplyUntil(15 * sim.Microsecond); fired != 1 {
		t.Errorf("ApplyUntil(15us) fired %d, want 1", fired)
	}
	// Node 0's uplink is now cut; node 1's is not yet.
	d, err := net.MustTransport(0, netsim.DefaultFailover()).Send(16*sim.Microsecond, 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Retried {
		t.Error("applied cut had no effect")
	}
	d, err = net.MustTransport(1, netsim.DefaultFailover()).Send(17*sim.Microsecond, 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d.Retried {
		t.Error("unapplied future cut already in effect")
	}
	if fired := inj.ApplyUntil(1 * sim.Millisecond); fired != 2 {
		t.Errorf("second ApplyUntil fired %d, want 2", fired)
	}
	if pending := len(inj.events) - inj.next; pending != 0 {
		t.Errorf("pending = %d after full apply", pending)
	}
}

func TestScheduleTargetsRightPlane(t *testing.T) {
	c, _ := CampaignByName("xbar-stuck")
	tp := topo.System256()
	planes := tp.CrossbarPlanes()
	r, err := Run(c, Options{Seed: 1, Topology: tp, Messages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Schedule) == 0 {
		t.Fatal("empty schedule at highest rate")
	}
	for _, e := range r.Schedule {
		if e.Kind != XbarStuck {
			t.Fatalf("wrong kind scheduled: %v", e)
		}
		if e.Plane != topo.NetworkA {
			t.Errorf("single-plane campaign scheduled plane %d", e.Plane)
		}
		if planes[e.Xbar] != topo.NetworkA {
			t.Errorf("plane-A fault aimed at crossbar %s on plane %d",
				tp.CrossbarName(e.Xbar), planes[e.Xbar])
		}
	}
}

func TestMixedCampaignOnSystem256(t *testing.T) {
	c, _ := CampaignByName("mixed")
	r, err := Run(c, Options{Seed: 1, Topology: topo.System256(), Messages: 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.Delivered+row.Failed != 128 {
			t.Errorf("rate %d: messages unaccounted: %+v", row.Faults, row)
		}
	}
}

func TestCampaignByName(t *testing.T) {
	if _, ok := CampaignByName("no-such-campaign"); ok {
		t.Error("unknown campaign resolved")
	}
	for _, c := range Campaigns() {
		got, ok := CampaignByName(c.Name)
		if !ok || got.Name != c.Name {
			t.Errorf("CampaignByName(%q) = %v, %v", c.Name, got.Name, ok)
		}
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{LinkCut: "link-cut", XbarStuck: "xbar-stuck", FlitCorrupt: "flit-corrupt", NIStall: "ni-stall"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown kind string unhelpful")
	}
}
