package netsim

import (
	"fmt"
	"testing"

	"powermanna/internal/link"
	"powermanna/internal/psim"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
	"powermanna/internal/xbar"
)

// TestSystem256LookaheadDerived pins System256's window width at every
// aligned shard count: a route setup plus one asynchronous wire
// crossing, less the canonical drain step — 533.666 ns, built from the
// network's own constants.
func TestSystem256LookaheadDerived(t *testing.T) {
	n := New(topo.System256())
	want := xbar.RouteSetup + n.linkCfg.PropagationDelay + n.linkCfg.TransferTime(1) + n.trans.Latency - canonStep
	if want != 533666*sim.Picosecond {
		t.Fatalf("derived bound %.3fns, want 533.666ns from the default link and transceiver", want.Nanos())
	}
	for _, shards := range system256Shards {
		pn, err := NewPartitioned(topo.System256(), shards, DefaultFailover())
		if err != nil {
			t.Fatal(err)
		}
		if got := pn.Engine().Lookahead(); got != want {
			t.Errorf("shards=%d: lookahead %.3fns, want %.3fns", shards, got.Nanos(), want.Nanos())
		}
	}
}

// TestLookaheadBoundsEveryCrossGroupRoute is the static proof of the
// derived lookahead: every cross-group route of System256, on both
// planes, split where the datapath splits it (grain.Boundary), posts
// its remote leg at least a route setup plus the wire into the boundary
// crossbar after the drain that walked it, and its verdict at least a
// route setup plus the wire leaving that crossbar after the destination
// leg's drain (NackLatency after it for a failure). Each slack must
// reach the engine's lookahead, and the tightest must meet it exactly:
// the bound is the minimum, not merely a safe value.
func TestLookaheadBoundsEveryCrossGroupRoute(t *testing.T) {
	tp := topo.System256()
	pn, err := NewPartitioned(tp, 1, DefaultFailover())
	if err != nil {
		t.Fatal(err)
	}
	n, grain := pn.net, pn.grain
	la := pn.Engine().Lookahead()
	wire := func(async bool) sim.Time {
		lat := n.linkCfg.PropagationDelay + n.linkCfg.TransferTime(1)
		if async {
			lat += n.trans.Latency
		}
		return lat
	}
	if nack := DefaultFailover().NackLatency - canonStep; nack < la {
		t.Fatalf("failure verdict slack %.3fns below the lookahead %.3fns", nack.Nanos(), la.Nanos())
	}
	tightest := sim.MaxTime
	routes := 0
	for src := 0; src < tp.Nodes(); src++ {
		for dst := 0; dst < tp.Nodes(); dst++ {
			if grain.NodeShard(src) == grain.NodeShard(dst) {
				continue
			}
			for _, plane := range []int{topo.NetworkA, topo.NetworkB} {
				path, err := tp.Route(src, dst, plane)
				if err != nil {
					t.Fatal(err)
				}
				split := grain.Boundary(&path)
				if split == 0 || split >= len(path.Hops) {
					t.Fatalf("%d->%d plane %d: split at hop %d of %d", src, dst, plane, split, len(path.Hops))
				}
				// The wire leaving the boundary crossbar feeds the next hop,
				// or the destination node when the boundary is the last hop.
				leavingAsync := split+1 < len(path.Hops) && path.Hops[split+1].AsyncIn
				legSlack := xbar.RouteSetup + wire(path.Hops[split].AsyncIn) - canonStep
				verdictSlack := xbar.RouteSetup + wire(leavingAsync) - canonStep
				if min(legSlack, verdictSlack) < la {
					t.Fatalf("%d->%d plane %d: remote-leg slack %.3fns, verdict slack %.3fns; lookahead %.3fns",
						src, dst, plane, legSlack.Nanos(), verdictSlack.Nanos(), la.Nanos())
				}
				tightest = min(tightest, legSlack, verdictSlack)
				routes++
			}
		}
	}
	if want := 128 * 120 * 2; routes != want {
		t.Fatalf("checked %d routes, want %d", routes, want)
	}
	if tightest != la {
		t.Fatalf("tightest route slack %.3fns, lookahead %.3fns: the bound is not the minimum", tightest.Nanos(), la.Nanos())
	}
}

// clusterPair builds two Cluster8-style backplanes joined by one
// central crossbar per plane, every inter-cluster link asynchronous
// except, when syncLink is set, cluster 1's plane-A link.
func clusterPair(syncLink bool) *topo.Topology {
	t := topo.New("cluster-pair", 16)
	var leaves [2][2]int
	for c := range leaves {
		for plane := range leaves[c] {
			leaves[c][plane] = t.AddCrossbar(fmt.Sprintf("%c%d", 'A'+plane, c))
			for i := 0; i < 8; i++ {
				mustConnectT(t, c*8+i, plane, leaves[c][plane], i, false)
			}
		}
	}
	for plane := 0; plane < 2; plane++ {
		central := t.AddCrossbar(fmt.Sprintf("C%c", 'A'+plane))
		for c := range leaves {
			async := !(syncLink && c == 1 && plane == topo.NetworkA)
			mustConnectT(t, leaves[c][plane], 8, central, c, async)
		}
	}
	return t
}

func mustConnectT(t *topo.Topology, devA, portA, devB, portB int, async bool) {
	if err := t.Connect(devA, portA, devB, portB, async); err != nil {
		panic(err)
	}
}

// TestLookaheadFallsBack pins where the derivation does not apply: a
// grain of one group (Cluster8), a synchronous boundary link, and a
// mesh, whose groups hand off between leaf routers. Each keeps the
// synchronous-link floor; the all-asynchronous cluster pair derives the
// wider window.
func TestLookaheadFallsBack(t *testing.T) {
	wide := xbar.RouteSetup + link.Default("wire").PropagationDelay + link.BytePeriod + link.DefaultTransceiver().Latency - canonStep
	for _, tc := range []struct {
		name string
		topo *topo.Topology
		want sim.Time
	}{
		{"cluster8", topo.Cluster8(), psim.DefaultLookahead()},
		{"cluster-pair", clusterPair(false), wide},
		{"cluster-pair-sync-link", clusterPair(true), psim.DefaultLookahead()},
		{"mesh4x4", topo.Mesh(4, 4), psim.DefaultLookahead()},
	} {
		pn, err := NewPartitioned(tc.topo, 1, DefaultFailover())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := pn.Engine().Lookahead(); got != tc.want {
			t.Errorf("%s: lookahead %.3fns, want %.3fns", tc.name, got.Nanos(), tc.want.Nanos())
		}
	}
}
