package traffic

import (
	"fmt"
	"strings"
	"testing"

	"powermanna/internal/psim"
	"powermanna/internal/sim"
	"powermanna/internal/telemetry"
	"powermanna/internal/topo"
)

// telemetryRun drives one System256 run with telemetry on and returns
// the Result; faultAt > 0 cuts node 9's plane-A uplink at that instant.
func telemetryRun(t *testing.T, kind psim.Kind, shards int, seed int64, faultAt sim.Time) *Result {
	t.Helper()
	eng, err := New(DefaultMix(), Options{
		Seed: seed, Topology: topo.System256(), Horizon: 200 * sim.Microsecond,
		Engine: kind, Shards: shards, Telemetry: true,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if faultAt > 0 {
		eng.Network().CutWire(9, topo.NetworkA, faultAt)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// rawSeries dumps every cell of every tenant's windowed instruments:
// one line per non-empty cell, counters as values, histograms as exact
// count, sum and extrema.
func rawSeries(r *Result) string {
	var b strings.Builder
	tel := r.Telemetry
	for _, tn := range r.Mix.Tenants {
		ts := resolveTenantSeries(tel, tn.Name)
		counters := []struct {
			name string
			s    *telemetry.Series
		}{
			{SeriesOfferedPrefix, ts.offered}, {SeriesDeliveredPrefix, ts.delivered},
			{SeriesFailedPrefix, ts.failed}, {SeriesViolationsPrefix, ts.violations},
		}
		hists := []*telemetry.HistSeries{ts.lat, ts.wait[0], ts.wait[1], ts.wait[2], ts.wait[3]}
		for w := 0; w <= tel.Windows(); w++ {
			for _, c := range counters {
				if v := c.s.Cell(w); v != 0 {
					fmt.Fprintf(&b, "series %s%s %s %d\n", c.name, tn.Name, tel.WindowLabel(w), v)
				}
			}
			for i, h := range hists {
				if c := h.Cell(w); c.Count != 0 {
					fmt.Fprintf(&b, "hist %d.%s %s %+v\n", i, tn.Name, tel.WindowLabel(w), c)
				}
			}
		}
	}
	return b.String()
}

// total sums every cell of a series, the tail included.
func total(s *telemetry.Series, tel *telemetry.Sampler) int64 {
	var n int64
	for w := 0; w <= tel.Windows(); w++ {
		n += s.Cell(w)
	}
	return n
}

// telemetryViews joins every telemetry surface into one string so a
// single comparison pins them all.
func telemetryViews(r *Result) string {
	return rawSeries(r) + "\n" + r.BurnTable().Render() + "\n" +
		r.DecompTable().Render() + "\n" + r.SeriesCSV()
}

// TestTelemetryByteIdenticalAcrossShards pins the tentpole contract:
// every rendered telemetry view — raw series dump, burn-rate table,
// decomposition table, CSV — is byte-identical across the sequential
// engine and the parallel engine at shard counts 1, 2 and 4, across
// seeds. Runs under -race in CI, so it also proves the per-shard
// samplers never share cells.
func TestTelemetryByteIdenticalAcrossShards(t *testing.T) {
	cfgs := []struct {
		name   string
		kind   psim.Kind
		shards int
	}{
		{"seq", psim.Seq, 1},
		{"par2", psim.Par, 2},
		{"par4", psim.Par, 4},
	}
	for _, seed := range []int64{1, 2, 3} {
		ref := telemetryViews(telemetryRun(t, cfgs[0].kind, cfgs[0].shards, seed, 0))
		if !strings.Contains(ref, "series offered.") {
			t.Fatalf("seed %d: reference run recorded no offered series:\n%s", seed, ref)
		}
		for _, c := range cfgs[1:] {
			got := telemetryViews(telemetryRun(t, c.kind, c.shards, seed, 0))
			if got != ref {
				t.Fatalf("seed %d: %s telemetry diverges from %s:\n--- %s\n%s\n--- %s\n%s",
					seed, c.name, cfgs[0].name, cfgs[0].name, ref, c.name, got)
			}
		}
	}
}

// TestTelemetryDecompSumsExact pins the window-level form of the
// decomposition contract: in every (window, tenant) cell the four wait
// series sum exactly to the latency series, counts matching — the
// per-message identity survives windowed aggregation because both sides
// are indexed by the same completion instant.
func TestTelemetryDecompSumsExact(t *testing.T) {
	res := telemetryRun(t, psim.Par, 4, 1, 100*sim.Microsecond)
	tel := res.Telemetry
	for _, tn := range res.Mix.Tenants {
		ts := resolveTenantSeries(tel, tn.Name)
		var delivered int64
		for w := 0; w <= tel.Windows(); w++ {
			lat := ts.lat.Cell(w)
			delivered += lat.Count
			var sum int64
			for i := range ts.wait {
				c := ts.wait[i].Cell(w)
				if c.Count != lat.Count {
					t.Errorf("%s %s: wait[%d] count %d != latency count %d",
						tn.Name, tel.WindowLabel(w), i, c.Count, lat.Count)
				}
				sum += c.Sum
			}
			if sum != lat.Sum {
				t.Errorf("%s %s: wait sums %d != latency sum %d", tn.Name, tel.WindowLabel(w), sum, lat.Sum)
			}
		}
		if delivered == 0 {
			t.Errorf("%s: no deliveries in any window", tn.Name)
		}
		// The series totals agree with the run-level registry counters:
		// the windowed layer drops nothing.
		var st TenantStats
		for _, cand := range res.Tenants {
			if cand.Name == tn.Name {
				st = cand
			}
		}
		if got := total(ts.offered, tel); got != st.Offered {
			t.Errorf("%s: series offered %d != counter %d", tn.Name, got, st.Offered)
		}
		if got := total(ts.delivered, tel); got != st.Delivered {
			t.Errorf("%s: series delivered %d != counter %d", tn.Name, got, st.Delivered)
		}
		if got := total(ts.failed, tel); got != st.Failed {
			t.Errorf("%s: series failed %d != counter %d", tn.Name, got, st.Failed)
		}
		if got := total(ts.violations, tel); got != st.Violations {
			t.Errorf("%s: series violations %d != counter %d", tn.Name, got, st.Violations)
		}
	}
}

// TestTelemetryLocalizesMidRunFault pins the operational story: a
// plane-A uplink cut halfway through the horizon shows up in the
// windowed detect component — the post-cut windows carry detection time
// the pre-cut windows do not.
func TestTelemetryLocalizesMidRunFault(t *testing.T) {
	cut := 100 * sim.Microsecond
	res := telemetryRun(t, psim.Seq, 1, 1, cut)
	tel := res.Telemetry
	cutWin := int(cut / tel.Window())
	var before, after int64
	for _, tn := range res.Mix.Tenants {
		ts := resolveTenantSeries(tel, tn.Name)
		for w := 0; w <= tel.Windows(); w++ {
			d := ts.wait[2].Cell(w).Sum
			if w < cutWin {
				before += d
			} else {
				after += d
			}
		}
	}
	if after == 0 {
		t.Fatalf("mid-run cut at window %d left no detection time in later windows", cutWin)
	}
	if before >= after {
		t.Errorf("detection time before the cut (%d) >= after (%d); series does not localize the fault", before, after)
	}
}

// TestTelemetryOffByDefault pins the off state: no sampler on the
// result, views render empty (header-only CSV), and the run itself is
// unchanged by the disabled instruments.
func TestTelemetryOffByDefault(t *testing.T) {
	eng, err := New(DefaultMix(), Options{Seed: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Telemetry != nil {
		t.Fatalf("telemetry sampler present without Options.Telemetry")
	}
	if rows := res.BurnTable().Rows; len(rows) != 0 {
		t.Errorf("burn table has %d rows with telemetry off", len(rows))
	}
	if csv := res.SeriesCSV(); strings.Count(csv, "\n") != 1 {
		t.Errorf("series CSV not header-only with telemetry off:\n%s", csv)
	}
}

// TestZeroAllocTelemetryObserve pins the fire/done hot paths with live
// telemetry instruments: observing into the windowed series must not
// allocate (the grid is pre-allocated at sampler creation).
func TestZeroAllocTelemetryObserve(t *testing.T) {
	eng, err := New(DefaultMix(), Options{Seed: 3, Telemetry: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s := eng.streams[0]
	allocs := testing.AllocsPerRun(1000, func() {
		s.tel.offered.Inc(s.at)
		s.tel.delivered.Inc(s.at)
		s.tel.lat.ObserveTime(s.at, sim.Microsecond)
		for i := range s.tel.wait {
			s.tel.wait[i].ObserveTime(s.at, sim.Nanosecond)
		}
	})
	if allocs != 0 {
		t.Fatalf("telemetry observation allocates %.1f per message; the windowed hot path must not allocate", allocs)
	}
}
