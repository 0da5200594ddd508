// Sequential-equivalence harness: the parallel engine's whole contract
// is that --engine par changes wall-clock time and nothing else. Every
// test here runs the same workload under the sequential scheduler and
// the sharded engine across several seeds and demands byte-identical
// observable output — the rendered degradation tables, the Chrome trace
// export, and the metrics dump. These are the same artifacts the CI
// goldens pin, so a regression here is a regression of the goldens.
package psim_test

import (
	"fmt"
	"strings"
	"testing"

	"powermanna/internal/earth"
	"powermanna/internal/fault"
	"powermanna/internal/heat"
	"powermanna/internal/metrics"
	"powermanna/internal/mpl"
	"powermanna/internal/psim"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
	"powermanna/internal/trace"
	"powermanna/internal/traffic"
)

// seeds are the equivalence sweep: enough variety to move fault
// placement, traffic pairing and failover timing between runs.
var seeds = []int64{1, 2, 3}

// campaignArtifacts runs one synthetic campaign and returns everything
// a user can observe: the rendered table, the trace export and the
// metrics dump.
func campaignArtifacts(t *testing.T, name string, seed int64, engine psim.Kind) (table, chrome, mets string) {
	t.Helper()
	c, ok := fault.CampaignByName(name)
	if !ok {
		t.Fatalf("no campaign %q", name)
	}
	rec := trace.NewRecorder()
	reg := metrics.NewRegistry()
	res, err := fault.Run(c, fault.Options{Seed: seed, Engine: engine, Trace: rec, Metrics: reg})
	if err != nil {
		t.Fatalf("%s seed %d engine %v: %v", name, seed, engine, err)
	}
	var b strings.Builder
	if err := trace.WriteChrome(&b, rec); err != nil {
		t.Fatal(err)
	}
	return res.Render(), b.String(), reg.Render()
}

// appArtifacts is campaignArtifacts for application campaigns (real
// workloads over the MPL or the EARTH runtime).
func appArtifacts(t *testing.T, name string, seed int64, engine psim.Kind) (table, chrome, mets string) {
	t.Helper()
	c, ok := fault.AppCampaignByName(name)
	if !ok {
		t.Fatalf("no app campaign %q", name)
	}
	rec := trace.NewRecorder()
	reg := metrics.NewRegistry()
	res, err := fault.RunApp(c, fault.Options{Seed: seed, Engine: engine, Trace: rec, Metrics: reg})
	if err != nil {
		t.Fatalf("%s seed %d engine %v: %v", name, seed, engine, err)
	}
	var b strings.Builder
	if err := trace.WriteChrome(&b, rec); err != nil {
		t.Fatal(err)
	}
	return res.Render(), b.String(), reg.Render()
}

// requireIdentical compares one artifact across engines.
func requireIdentical(t *testing.T, what string, seq, par string) {
	t.Helper()
	if seq == par {
		return
	}
	line := 1
	for i := 0; i < len(seq) && i < len(par); i++ {
		if seq[i] != par[i] {
			t.Fatalf("%s diverges at byte %d (line %d): seq %q vs par %q",
				what, i, line, excerpt(seq, i), excerpt(par, i))
		}
		if seq[i] == '\n' {
			line++
		}
	}
	t.Fatalf("%s diverges in length: seq %d bytes, par %d bytes", what, len(seq), len(par))
}

func excerpt(s string, at int) string {
	end := at + 40
	if end > len(s) {
		end = len(s)
	}
	return s[at:end]
}

// TestLinkCutEquivalence sweeps the synthetic link-cut campaign: every
// observable artifact must be byte-identical across engines and seeds.
func TestLinkCutEquivalence(t *testing.T) {
	for _, seed := range seeds {
		st, sc, sm := campaignArtifacts(t, "link-cut", seed, psim.Seq)
		pt, pc, pm := campaignArtifacts(t, "link-cut", seed, psim.Par)
		requireIdentical(t, "link-cut table", st, pt)
		requireIdentical(t, "link-cut trace", sc, pc)
		requireIdentical(t, "link-cut metrics", sm, pm)
	}
}

// TestHeatLinkCutEquivalence sweeps the heat-diffusion app campaign —
// a real MPL workload with failover traffic contending against the OS
// stream, including the receive-wait histogram in the metrics dump.
func TestHeatLinkCutEquivalence(t *testing.T) {
	for _, seed := range seeds {
		st, sc, sm := appArtifacts(t, "heat-linkcut", seed, psim.Seq)
		pt, pc, pm := appArtifacts(t, "heat-linkcut", seed, psim.Par)
		requireIdentical(t, "heat-linkcut table", st, pt)
		requireIdentical(t, "heat-linkcut trace", sc, pc)
		requireIdentical(t, "heat-linkcut metrics", sm, pm)
		if !strings.Contains(sm, "mpl.recv.wait") {
			t.Fatalf("metrics dump misses the receive-wait view:\n%s", sm)
		}
	}
}

// TestFibLinkCutEquivalence sweeps the EARTH app campaign: the runtime
// runs with a psim shard as its event queue, exercising reentrant
// Shard.Run inside an executing event.
func TestFibLinkCutEquivalence(t *testing.T) {
	for _, seed := range seeds {
		st, _, sm := appArtifacts(t, "fib-linkcut", seed, psim.Seq)
		pt, _, pm := appArtifacts(t, "fib-linkcut", seed, psim.Par)
		requireIdentical(t, "fib-linkcut table", st, pt)
		requireIdentical(t, "fib-linkcut metrics", sm, pm)
	}
}

// TestPingPongDiffEquivalence pins the pmtrace diff path: the timeline
// divergence between two seeds must itself be engine-independent —
// diffing seq-recorded runs and par-recorded runs of the link-cut
// campaign yields the same report.
func TestPingPongDiffEquivalence(t *testing.T) {
	record := func(seed int64, engine psim.Kind) *trace.Recorder {
		c, _ := fault.CampaignByName("link-cut")
		rec := trace.NewRecorder()
		if _, err := fault.Run(c, fault.Options{Seed: seed, Engine: engine, Trace: rec}); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	render := func(engine psim.Kind) string {
		var b strings.Builder
		if err := trace.WriteDiff(&b, record(1, engine), record(2, engine)); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	requireIdentical(t, "link-cut diff report", render(psim.Seq), render(psim.Par))
}

// TestEarthOnShardMatchesScheduler runs the EARTH fib benchmark
// directly on a single-shard engine against the stock scheduler: same
// answer, same makespan, byte-identical timeline.
func TestEarthOnShardMatchesScheduler(t *testing.T) {
	run := func(eng sim.Engine) (int64, sim.Time, string) {
		tp := topo.Cluster8()
		var s *earth.System
		if eng != nil {
			s = earth.NewWithEngine(tp, earth.DefaultParams(), eng)
		} else {
			s = earth.New(tp, earth.DefaultParams())
		}
		rec := trace.NewRecorder()
		s.SetRecorder(rec)
		got, makespan, err := earth.RunFib(s, 10)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := trace.WriteChrome(&b, rec); err != nil {
			t.Fatal(err)
		}
		return got, makespan, b.String()
	}
	sg, sm, st := run(nil)
	pg, pm, pt := run(psim.NewEngine(1, 0).Shard(0))
	if sg != pg || sm != pm {
		t.Fatalf("fib on shard: got %d in %v, scheduler got %d in %v", pg, pm, sg, sm)
	}
	requireIdentical(t, "fib timeline", st, pt)
}

// partArtifacts runs one partitioned SPMD workload over a PWorld with
// the given shard count and returns everything observable: a summary
// line (makespan, message and byte counts) and the metrics dump. The
// seed parameterizes the workload shape — payload sizes and round
// counts — so the sweep moves contention and failover timing around.
func partArtifacts(t *testing.T, shards int, seed int64, body func(w *mpl.PWorld, seed int64) error) (summary, mets string) {
	t.Helper()
	w, err := mpl.NewPWorld(topo.System256(), shards)
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	reg := metrics.NewRegistry()
	w.SetMetrics(reg)
	if err := body(w, seed); err != nil {
		t.Fatalf("shards=%d seed=%d: %v", shards, seed, err)
	}
	if eng := w.PartNetwork().Engine(); eng.MinPostSlack() < eng.Lookahead() {
		t.Fatalf("shards=%d seed=%d: cross-shard post slack %.3fns below the lookahead %.3fns", shards, seed, eng.MinPostSlack().Nanos(), eng.Lookahead().Nanos())
	}
	msgs, bytes := w.Stats()
	return fmt.Sprintf("makespan=%v msgs=%d bytes=%d", w.MaxTime(), msgs, bytes), reg.Render()
}

// TestPartitionedWorkloadEquivalence is the single-workload face of the
// equivalence contract: one application, partitioned across psim shards
// through the cross-shard mailboxes, must produce byte-identical
// summaries and metrics dumps at every aligned shard count. This is the
// property the --engine par --shards 4 golden gates rest on,
// swept here across three workload shapes and three seeds.
func TestPartitionedWorkloadEquivalence(t *testing.T) {
	pingpong := func(w *mpl.PWorld, seed int64) error {
		// Pair rank r with r+p/2 so every exchange crosses the central
		// stage — and every shard boundary at any aligned shard count.
		return w.Run(func(r *mpl.PRank) error {
			p := r.Ranks()
			peer := (r.Rank() + p/2) % p
			payload := make([]byte, 32*seed+int64(r.Rank()%7)*16)
			for round := 0; round < 4+int(seed); round++ {
				if r.Rank() < p/2 {
					if err := r.Send(peer, round, payload); err != nil {
						return err
					}
					if _, err := r.Recv(peer, round); err != nil {
						return err
					}
				} else {
					if _, err := r.Recv(peer, round); err != nil {
						return err
					}
					if err := r.Send(peer, round, payload); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}
	heatBody := func(w *mpl.PWorld, seed int64) error {
		cfg := heat.DefaultConfig((6+2*int(seed))*w.Ranks(), 8)
		cfg.ReduceEvery = 4
		_, err := heat.RunPart(w, cfg)
		return err
	}
	allreduce := func(w *mpl.PWorld, seed int64) error {
		p := w.Ranks()
		wantA := float64(p) * float64(p+1) / 2
		return w.Run(func(r *mpl.PRank) error {
			for round := 0; round < 3+int(seed); round++ {
				got, err := r.AllReduce([]float64{float64(r.Rank() + 1)}, round)
				if err != nil {
					return err
				}
				if len(got) != 1 || got[0] != wantA {
					return fmt.Errorf("round %d sum = %v, want %v", round, got, wantA)
				}
			}
			return nil
		})
	}
	workloads := []struct {
		name string
		body func(w *mpl.PWorld, seed int64) error
	}{
		{"pingpong", pingpong},
		{"heat", heatBody},
		{"allreduce", allreduce},
	}
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			for _, seed := range seeds {
				refSummary, refMets := partArtifacts(t, 1, seed, wl.body)
				for _, shards := range []int{2, 4, 8} {
					summary, mets := partArtifacts(t, shards, seed, wl.body)
					requireIdentical(t, fmt.Sprintf("%s seed %d shards %d summary", wl.name, seed, shards), refSummary, summary)
					requireIdentical(t, fmt.Sprintf("%s seed %d shards %d metrics", wl.name, seed, shards), refMets, mets)
				}
			}
		})
	}
}

// TestRoundCountsPinned pins the engine's round counters on heat-spmd's
// quick configuration (System256, 24 cells per rank, 30 steps) and a
// short System256 traffic run, both at 2 shards: the counters are pure
// functions of the model, equal under serial and parallel dispatch.
// They move only with the window program — System256's windows are
// the 533.666 ns netsim derives from its asynchronous inter-cluster
// links — never with a simulated result.
func TestRoundCountsPinned(t *testing.T) {
	heatRounds := func(serial bool) *psim.Engine {
		w, err := mpl.NewPWorld(topo.System256(), 2)
		if err != nil {
			t.Fatal(err)
		}
		w.PartNetwork().SetSerial(serial)
		if _, err := heat.RunPart(w, heat.DefaultConfig(24*256, 30)); err != nil {
			t.Fatal(err)
		}
		return w.PartNetwork().Engine()
	}
	trafficRounds := func(serial bool) *psim.Engine {
		eng, err := traffic.New(traffic.DefaultMix(), traffic.Options{
			Seed: 1, Topology: topo.System256(), Horizon: 100 * sim.Microsecond, Engine: psim.Par, Shards: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng.PartNetwork().SetSerial(serial)
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng.PartNetwork().Engine()
	}
	for _, tc := range []struct {
		name         string
		run          func(serial bool) *psim.Engine
		rounds, solo uint64
	}{
		{"heat-spmd", heatRounds, 497, 23},
		{"traffic", trafficRounds, 180, 37},
	} {
		for _, serial := range []bool{true, false} {
			eng := tc.run(serial)
			if la := 533666 * sim.Picosecond; eng.Lookahead() != la {
				t.Errorf("%s: lookahead %.3fns, want %.3fns", tc.name, eng.Lookahead().Nanos(), la.Nanos())
			}
			if eng.Rounds() != tc.rounds || eng.SoloRounds() != tc.solo {
				t.Errorf("%s serial=%v: %d rounds, %d solo; want %d, %d", tc.name, serial, eng.Rounds(), eng.SoloRounds(), tc.rounds, tc.solo)
			}
		}
	}
}
