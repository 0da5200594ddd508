package traffic

import (
	"testing"

	"powermanna/internal/psim"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
)

// drainSchedule advances a fresh stream's arrival process n steps and
// returns the arrival instants — the pure-function-of-seed schedule the
// determinism harness pins.
func drainSchedule(t *testing.T, seed int64, tenant, node, n int) []sim.Time {
	t.Helper()
	eng, err := New(DefaultMix(), Options{Seed: seed})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mix := DefaultMix()
	s := newStream(&eng.core, mix.Tenants[tenant], tenant, node, eng.opt.Topology.Nodes(), seed, &tenantCounters{}, tenantSeries{})
	out := make([]sim.Time, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, s.at)
		s.advance()
	}
	return out
}

func TestArrivalScheduleDeterministic(t *testing.T) {
	for tenant := 0; tenant < 4; tenant++ {
		a := drainSchedule(t, 7, tenant, 3, 200)
		b := drainSchedule(t, 7, tenant, 3, 200)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("tenant %d: schedule diverged at %d: %v vs %v", tenant, i, a[i], b[i])
			}
		}
		// Strictly increasing: the 1 ns gap floor forbids same-instant
		// refires.
		for i := 1; i < len(a); i++ {
			if a[i] <= a[i-1] {
				t.Fatalf("tenant %d: non-increasing arrivals at %d: %v then %v", tenant, i, a[i-1], a[i])
			}
		}
	}
	// Different seeds, tenants and nodes draw different schedules.
	base := drainSchedule(t, 7, 0, 3, 50)
	for name, other := range map[string][]sim.Time{
		"seed":   drainSchedule(t, 8, 0, 3, 50),
		"tenant": drainSchedule(t, 7, 1, 3, 50),
		"node":   drainSchedule(t, 7, 0, 4, 50),
	} {
		same := true
		for i := range base {
			if base[i] != other[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("schedule identical across %s change", name)
		}
	}
}

func TestZeroAllocSampler(t *testing.T) {
	eng, err := New(DefaultMix(), Options{Seed: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, s := range []*stream{eng.streams[0], eng.streams[len(eng.streams)-1]} {
		s := s
		allocs := testing.AllocsPerRun(1000, func() {
			_ = s.sampleSize()
			_ = s.sampleDst()
			s.advance()
		})
		if allocs != 0 {
			t.Fatalf("sampler allocates %.1f per message; the open-loop hot path must not allocate", allocs)
		}
	}
}

func TestMixValidate(t *testing.T) {
	cases := []Mix{
		{Name: "empty"},
		{Name: "unnamed", Tenants: []Tenant{{Arrival: Arrival{MeanGap: sim.Microsecond}, Sizes: Sizes{Kind: Fixed, Bytes: 1}}}},
		{Name: "dup", Tenants: []Tenant{
			{Name: "a", Arrival: Arrival{MeanGap: sim.Microsecond}, Sizes: Sizes{Kind: Fixed, Bytes: 1}},
			{Name: "a", Arrival: Arrival{MeanGap: sim.Microsecond}, Sizes: Sizes{Kind: Fixed, Bytes: 1}},
		}},
		{Name: "gap", Tenants: []Tenant{{Name: "a", Sizes: Sizes{Kind: Fixed, Bytes: 1}}}},
		{Name: "onoff", Tenants: []Tenant{{Name: "a", Arrival: Arrival{Kind: OnOff, MeanGap: sim.Microsecond}, Sizes: Sizes{Kind: Fixed, Bytes: 1}}}},
		{Name: "size", Tenants: []Tenant{{Name: "a", Arrival: Arrival{MeanGap: sim.Microsecond}}}},
		{Name: "pareto", Tenants: []Tenant{{Name: "a", Arrival: Arrival{MeanGap: sim.Microsecond}, Sizes: Sizes{Kind: Pareto, MinBytes: 8, MaxBytes: 4}}}},
	}
	for _, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("mix %q: want validation error, got nil", m.Name)
		}
	}
	for _, m := range Mixes() {
		if err := m.Validate(); err != nil {
			t.Errorf("mix %q: %v", m.Name, err)
		}
	}
	if _, err := MixByName("default"); err != nil {
		t.Errorf("MixByName(default): %v", err)
	}
	if _, err := MixByName("nope"); err == nil {
		t.Errorf("MixByName(nope): want error")
	}
}

func TestServiceAccounting(t *testing.T) {
	eng, err := New(DefaultMix(), Options{Seed: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var offered int64
	for _, ts := range res.Tenants {
		if ts.Offered == 0 {
			t.Errorf("tenant %s offered nothing over the horizon", ts.Name)
		}
		if ts.Offered != ts.Delivered+ts.Failed {
			t.Errorf("tenant %s: offered %d != delivered %d + failed %d", ts.Name, ts.Offered, ts.Delivered, ts.Failed)
		}
		if ts.Violations < ts.Failed {
			t.Errorf("tenant %s: violations %d below failed %d", ts.Name, ts.Violations, ts.Failed)
		}
		if ts.Delivered > 0 && (ts.P50 <= 0 || ts.P99 < ts.P50 || ts.P999 < ts.P99) {
			t.Errorf("tenant %s: malformed quantiles p50=%v p99=%v p999=%v", ts.Name, ts.P50, ts.P99, ts.P999)
		}
		if ts.Failed == 0 && ts.DeliveredBytes != ts.OfferedBytes {
			t.Errorf("tenant %s: no failures but delivered bytes %d != offered bytes %d", ts.Name, ts.DeliveredBytes, ts.OfferedBytes)
		}
		offered += ts.Offered
	}
	// The datapath counts launched attempts: at least one per offered
	// message, more when open-loop FIFO stalls force a failover retry.
	pn := eng.PartNetwork()
	if sent := pn.Plane(topo.NetworkA).Attempts + pn.Plane(topo.NetworkB).Attempts; sent < offered {
		t.Errorf("datapath launched %d attempts, below %d offered messages", sent, offered)
	}
	if _, err := eng.Run(); err == nil {
		t.Errorf("second Run: want error")
	}
}

func TestFaultedRunDegradesService(t *testing.T) {
	run := func(cut bool) *Result {
		eng, err := New(DefaultMix(), Options{Seed: 1})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if cut {
			// Sever several plane-A NI links before the run: failover
			// pushes those nodes' traffic to plane B.
			for node := 0; node < 4; node++ {
				eng.Network().CutWire(node, topo.NetworkA, 0)
			}
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	clean, faulted := run(false), run(true)
	if fo := faulted.PlaneA.Get("failed-over"); fo == 0 {
		t.Fatalf("cut plane-A links but nothing failed over:\n%s", faulted.PlaneA.Render())
	}
	var cleanViol, faultViol int64
	for i := range clean.Tenants {
		cleanViol += clean.Tenants[i].Violations
		faultViol += faulted.Tenants[i].Violations
	}
	if faultViol < cleanViol {
		t.Errorf("faulted run has fewer SLO violations (%d) than clean (%d)", faultViol, cleanViol)
	}
}

func TestRunByteIdenticalAcrossEngines(t *testing.T) {
	type cfg struct {
		name   string
		kind   psim.Kind
		shards int
	}
	run := func(c cfg, tp *topo.Topology, seed int64, horizon sim.Time) (string, string) {
		eng, err := New(DefaultMix(), Options{
			Seed: seed, Topology: tp, Horizon: horizon, Engine: c.kind, Shards: c.shards,
		})
		if err != nil {
			t.Fatalf("%s: New: %v", c.name, err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatalf("%s: Run: %v", c.name, err)
		}
		return res.Render(), res.Registry.Render()
	}
	// Cluster8 is a single leaf crossbar (unshardable); System256 is the
	// partitioned machine, exercised at shards 1, 2 and 4.
	for _, tc := range []struct {
		topo *topo.Topology
		cfgs []cfg
	}{
		{topo.System256(), []cfg{
			{"seq", psim.Seq, 1},
			{"par2", psim.Par, 2},
			{"par4", psim.Par, 4},
		}},
	} {
		horizon := 200 * sim.Microsecond
		for _, seed := range []int64{1, 7} {
			refReport, refReg := run(tc.cfgs[0], tc.topo, seed, horizon)
			for _, c := range tc.cfgs[1:] {
				rep, reg := run(c, tc.topo, seed, horizon)
				if rep != refReport {
					t.Fatalf("%s seed %d: %s report diverges from %s:\n--- %s\n%s\n--- %s\n%s",
						tc.topo.Name(), seed, c.name, tc.cfgs[0].name, tc.cfgs[0].name, refReport, c.name, rep)
				}
				if reg != refReg {
					t.Fatalf("%s seed %d: %s registry diverges from %s", tc.topo.Name(), seed, c.name, tc.cfgs[0].name)
				}
			}
		}
	}
}
