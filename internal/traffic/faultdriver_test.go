package traffic

import (
	"fmt"
	"math/rand"
	"testing"

	"powermanna/internal/netsim"
	"powermanna/internal/psim"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
)

// wireFault is one randomized fault: a cut of the directed wire leaving
// (dev, port) at from, or a corruption window [from, until) on it.
type wireFault struct {
	dev, port   int
	cut         bool
	from, until sim.Time
}

func (f wireFault) apply(n *netsim.Network) {
	if f.cut {
		n.CutWire(f.dev, f.port, f.from)
	} else {
		n.CorruptWire(f.dev, f.port, f.from, f.until)
	}
}

// randomFaults draws a seeded fault schedule over System256. Each fault
// picks a random cross-group route and one wire along it — the source
// uplink, the leaf-to-central and central-to-leaf boundary wires, or
// the last leaf-to-node wire — and cuts it or corrupts a window of it,
// starting anywhere in the horizon so most cuts land mid-run. The
// first two faults always hit the boundary wires, where the
// partitioned datapath hands a send from one shard to another.
func randomFaults(tp *topo.Topology, seed int64, count int, horizon sim.Time) []wireFault {
	rng := rand.New(rand.NewSource(seed))
	nodes := tp.Nodes()
	out := make([]wireFault, 0, count)
	for len(out) < count {
		src, dst := rng.Intn(nodes), rng.Intn(nodes)
		if src/8 == dst/8 {
			continue // same cluster: no handoff
		}
		plane := rng.Intn(2)
		path, err := tp.Route(src, dst, plane)
		if err != nil {
			panic(err)
		}
		// Wire k is the uplink (k = 0) or the wire leaving hop k-1.
		k := rng.Intn(len(path.Hops) + 1)
		if len(out) < 2 {
			k = 1 + len(out) // leaf-to-central, then central-to-leaf
		}
		f := wireFault{dev: src, port: plane, cut: rng.Intn(2) == 0}
		if k > 0 {
			h := path.Hops[k-1]
			f.dev, f.port = nodes+h.Xbar, h.Out
		}
		f.from = sim.Time(rng.Int63n(int64(horizon)))
		f.until = f.from + sim.Time(1+rng.Int63n(int64(horizon/4)))
		out = append(out, f)
	}
	return out
}

// TestRandomFaultsMatchAcrossEngines drives the default mix on
// System256 through seeded random cut and corruption schedules and
// demands the same report and metrics from the sequential run and from
// 2 and 4 shards, with every cross-shard post at or beyond the engine's
// lookahead. It is the randomized counterpart of the hand-built
// protocol rows in netsim: faults land on either side of the handoff
// and at arbitrary times, so failover, CRC retries and open-hold
// parking interleave in ways no fixed row covers.
func TestRandomFaultsMatchAcrossEngines(t *testing.T) {
	const horizon = 300 * sim.Microsecond
	run := func(kind psim.Kind, shards int, seed int64) (string, string, int64) {
		tp := topo.System256()
		eng, err := New(DefaultMix(), Options{Seed: seed, Topology: tp, Horizon: horizon, Engine: kind, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range randomFaults(tp, seed, 12, horizon) {
			f.apply(eng.Network())
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if pe := eng.PartNetwork().Engine(); pe.MinPostSlack() < pe.Lookahead() {
			t.Errorf("seed %d shards %d: cross-shard post slack %.3fns below the lookahead %.3fns", seed, shards, pe.MinPostSlack().Nanos(), pe.Lookahead().Nanos())
		}
		failed := res.PlaneA.Get("failed-over") + res.PlaneB.Get("failed-over") + res.PlaneA.Get("crc-errors") + res.PlaneB.Get("crc-errors")
		return res.Render(), res.Registry.Render(), failed
	}
	var faulted int64
	for _, seed := range []int64{1, 2, 3} {
		refReport, refReg, failed := run(psim.Seq, 1, seed)
		faulted += failed
		for _, shards := range []int{2, 4} {
			rep, reg, _ := run(psim.Par, shards, seed)
			what := fmt.Sprintf("seed %d shards %d", seed, shards)
			if rep != refReport {
				t.Fatalf("%s: report diverges from seq:\n--- seq\n%s\n--- par\n%s", what, refReport, rep)
			}
			if reg != refReg {
				t.Fatalf("%s: registry diverges from seq", what)
			}
		}
	}
	if faulted == 0 {
		t.Fatal("no random fault caused a failover or CRC error: the schedules exercised nothing")
	}
}
