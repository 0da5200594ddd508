package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"powermanna/internal/metrics"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
	"powermanna/internal/trace"
)

// system256Shards are the shard counts that align with System256's
// 16 leaf groups of 8 nodes.
var system256Shards = []int{1, 2, 4, 8, 16}

// sendAt is one message of an equivalence row: dst and payload, posted
// at the given time.
type sendAt struct {
	at         sim.Time
	dst, bytes int
}

// partSends runs a sequence of messages from src through a fresh
// partitioned System256 and returns their Delivery records and both
// planes' counters. fault applies wire faults to both the partitioned
// and the legacy network identically.
func partSends(t *testing.T, shards int, serial bool, src int, msgs []sendAt, fault func(*Network)) ([]Delivery, [2]PlaneCounters) {
	t.Helper()
	pn, err := NewPartitioned(topo.System256(), shards, DefaultFailover())
	if err != nil {
		t.Fatalf("NewPartitioned(%d): %v", shards, err)
	}
	pn.SetSerial(serial)
	if fault != nil {
		fault(pn.Network())
	}
	got := make([]Delivery, len(msgs))
	done := 0
	sh := pn.Shard(pn.ShardOf(src))
	for i, m := range msgs {
		i, m := i, m
		sh.At(m.at, func() {
			if err := pn.SendAsync(src, m.dst, m.bytes, nil, m.at, func(d Delivery) { got[i] = d; done++ }); err != nil {
				t.Errorf("SendAsync: %v", err)
			}
		})
	}
	pn.Run()
	if done != len(msgs) {
		t.Fatalf("shards=%d serial=%v: %d of %d sends from %d completed", shards, serial, done, len(msgs), src)
	}
	if eng := pn.Engine(); eng.MinPostSlack() < eng.Lookahead() {
		t.Errorf("shards=%d serial=%v: cross-shard post slack %.3fns below the lookahead %.3fns", shards, serial, eng.MinPostSlack().Nanos(), eng.Lookahead().Nanos())
	}
	return got, [2]PlaneCounters{pn.Plane(topo.NetworkA), pn.Plane(topo.NetworkB)}
}

// legacySends runs the same messages through one synchronous transport.
func legacySends(t *testing.T, src int, msgs []sendAt, fault func(*Network)) ([]Delivery, [2]PlaneCounters) {
	t.Helper()
	n := New(topo.System256())
	if fault != nil {
		fault(n)
	}
	tp := n.MustTransport(src, DefaultFailover())
	out := make([]Delivery, len(msgs))
	for i, m := range msgs {
		d, err := tp.Send(m.at, m.dst, m.bytes)
		if err != nil {
			t.Fatalf("legacy send %d->%d: %v", src, m.dst, err)
		}
		out[i] = d
	}
	return out, [2]PlaneCounters{n.Plane(topo.NetworkA), n.Plane(topo.NetworkB)}
}

// TestPartitionedSendMatchesLegacy pins the partitioned split-phase
// send to the synchronous protocol, message by message: with no
// contention the two paths must produce identical Delivery records —
// same transit times, same plane, same attempt and failover accounting
// — and identical plane counters, for intra-group, cross-group and
// faulted routes, at every aligned shard count and under both dispatch
// modes. The faulted rows reach every branch of the sender's protocol:
// ack-timeout failover after a cut on either half, setup timeouts at a
// stuck output on either half, a wedged send FIFO, CRC retry and
// failover, a budget-exhausting corruption on both planes, total
// failure, and a plane-down cache hit on a follow-up send.
func TestPartitionedSendMatchesLegacy(t *testing.T) {
	cutUplink := func(n *Network) {
		// Sever the source's plane-A uplink just after the header passes
		// its entry check: failover to plane B after one ack timeout.
		n.CutWire(0, topo.NetworkA, 100*sim.Nanosecond)
	}
	// hopTo returns the i-th crossbar hop (negative: from the end) of
	// 0->dst on a plane; hop is the one of 0->13.
	hopTo := func(n *Network, dst, plane, i int) topo.Hop {
		path, err := n.Topology().Route(0, dst, plane)
		if err != nil {
			t.Fatalf("route: %v", err)
		}
		if i < 0 {
			i += len(path.Hops)
		}
		return path.Hops[i]
	}
	hop := func(n *Network, plane, i int) topo.Hop { return hopTo(n, 13, plane, i) }
	farSide := func(n *Network, plane int) (dev, port int) {
		last := hop(n, plane, -1)
		return n.Topology().Nodes() + last.Xbar, last.Out
	}
	cutFarSide := func(n *Network) {
		// Sever the destination-side leaf-to-node wire of 0->13 plane A
		// before the run: the walk fails on the destination half.
		dev, port := farSide(n, topo.NetworkA)
		n.CutWire(dev, port, 0)
	}
	corruptFarSide := func(n *Network) {
		dev, port := farSide(n, topo.NetworkA)
		n.CorruptWire(dev, port, 0, 20*sim.Microsecond)
	}
	corruptOnce := func(n *Network) {
		// Garble only the first crossing: the same-plane retry delivers.
		dev, port := farSide(n, topo.NetworkA)
		n.CorruptWire(dev, port, 0, 5*sim.Microsecond)
	}
	corruptNearSide := func(n *Network) {
		// Garble the first crossing of the source leaf's wire to the
		// central stage on 0->100, plane A: the destination half, on
		// another shard from 2 shards up, renders the CRC verdict from the
		// source leg's faulted wire, and the same-plane retry delivers.
		h := hopTo(n, 100, topo.NetworkA, 0)
		n.CorruptWire(n.Topology().Nodes()+h.Xbar, h.Out, 0, 5*sim.Microsecond)
	}
	corruptBoth := func(n *Network) {
		// Every crossing on both planes is garbled: the CRC budget runs
		// out, then the soft-failure alternation does.
		for _, plane := range []int{topo.NetworkA, topo.NetworkB} {
			dev, port := farSide(n, plane)
			n.CorruptWire(dev, port, 0, sim.MaxTime)
		}
	}
	stuckSrcSide := func(n *Network) {
		h := hop(n, topo.NetworkA, 0)
		n.Crossbar(h.Xbar).StickOutput(h.Out, 0, sim.Second)
	}
	stuckDstSide := func(n *Network) {
		h := hop(n, topo.NetworkA, -1)
		n.Crossbar(h.Xbar).StickOutput(h.Out, 0, sim.Second)
	}
	stallFIFO := func(n *Network) {
		n.NI(0).Links[topo.NetworkA].Stall(0, sim.Millisecond)
	}
	cutBoth := func(n *Network) {
		n.CutWire(0, topo.NetworkA, 0)
		n.CutWire(0, topo.NetworkB, 0)
	}
	one := func(dst, bytes int) []sendAt { return []sendAt{{0, dst, bytes}} }
	cases := []struct {
		name  string
		src   int
		msgs  []sendAt
		fault func(*Network)
		// ran checks on the legacy outcome that the row reached the
		// branch it is named for.
		ran func(d []Delivery, a PlaneCounters) bool
	}{
		{"intra-group", 0, one(5, 256), nil, nil},
		{"cross-group", 0, one(13, 256), nil, nil},
		{"far-cross-shard", 3, one(120, 4096), nil, nil},
		{"uplink-cut-failover", 0, one(13, 256), cutUplink,
			func(d []Delivery, a PlaneCounters) bool { return a.LinkDown == 1 && d[0].Plane == topo.NetworkB }},
		{"dst-cut-failover", 0, one(13, 256), cutFarSide,
			func(d []Delivery, a PlaneCounters) bool { return a.LinkDown == 1 && d[0].Plane == topo.NetworkB }},
		{"dst-crc-retry", 0, one(13, 256), corruptFarSide,
			func(d []Delivery, a PlaneCounters) bool { return a.CRCRetries == 1 && a.FailedOver == 1 }},
		{"crc-retry-delivers", 0, one(13, 256), corruptOnce,
			func(d []Delivery, a PlaneCounters) bool {
				return a.CRCRetries == 1 && a.FailedOver == 0 && d[0].Plane == topo.NetworkA && d[0].Attempts == 2
			}},
		{"corrupt-near-side", 0, one(100, 256), corruptNearSide,
			func(d []Delivery, a PlaneCounters) bool {
				return a.CRCRetries == 1 && a.FailedOver == 0 && d[0].Plane == topo.NetworkA && d[0].Attempts == 2
			}},
		{"crc-outlasts-budget", 0, one(13, 256), corruptBoth,
			func(d []Delivery, a PlaneCounters) bool {
				return d[0].Failed && d[0].Attempts == DefaultMaxAttempts && a.CRCRetries == 1
			}},
		{"src-stuck-timeout", 0, one(13, 256), stuckSrcSide,
			func(d []Delivery, a PlaneCounters) bool { return a.SetupTimeouts == 1 && d[0].Plane == topo.NetworkB }},
		{"dst-stuck-timeout", 0, one(13, 256), stuckDstSide,
			func(d []Delivery, a PlaneCounters) bool { return a.SetupTimeouts == 1 && d[0].Plane == topo.NetworkB }},
		{"fifo-stall-failover", 0, one(13, 256), stallFIFO,
			func(d []Delivery, a PlaneCounters) bool {
				return a.Stalled == 1 && a.SetupTimeouts == 1 && d[0].Plane == topo.NetworkB
			}},
		{"both-planes-cut", 0, one(13, 256), cutBoth,
			func(d []Delivery, a PlaneCounters) bool { return d[0].Failed }},
		{"plane-down-cache-hit", 0, []sendAt{{0, 13, 256}, {60 * sim.Microsecond, 13, 256}}, cutUplink,
			func(d []Delivery, a PlaneCounters) bool { return d[1].SkippedDown == 1 && a.SkippedDown == 1 }},
	}
	for _, tc := range cases {
		want, wantPlanes := legacySends(t, tc.src, tc.msgs, tc.fault)
		if tc.ran != nil && !tc.ran(want, wantPlanes[topo.NetworkA]) {
			t.Errorf("%s: legacy run missed its branch: %+v, plane A %+v", tc.name, want, wantPlanes[topo.NetworkA])
		}
		for i, d := range want {
			if decompSum(d.Decomp) != d.Latency() {
				t.Errorf("%s send %d: legacy decomposition %v != latency %v", tc.name, i, decompSum(d.Decomp), d.Latency())
			}
		}
		for _, shards := range system256Shards {
			for _, serial := range []bool{false, true} {
				got, planes := partSends(t, shards, serial, tc.src, tc.msgs, tc.fault)
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("%s shards=%d serial=%v send %d:\n got %+v\nwant %+v",
							tc.name, shards, serial, i, got[i], want[i])
					}
					if decompSum(got[i].Decomp) != got[i].Latency() {
						t.Errorf("%s shards=%d serial=%v send %d: decomposition %v != latency %v",
							tc.name, shards, serial, i, decompSum(got[i].Decomp), got[i].Latency())
					}
				}
				if planes != wantPlanes {
					t.Errorf("%s shards=%d serial=%v: plane counters\n got %+v\nwant %+v",
						tc.name, shards, serial, planes, wantPlanes)
				}
			}
		}
	}
}

// partBurst is a contended workload: every node sends a first wave to a
// fixed permutation target at t=0 and a second wave back to its group
// neighbourhood at 2 µs — enough same-time cross-group traffic to
// exercise canonical drains, open holds and parked walkers.
func partBurst(t *testing.T, shards int, serial bool) (deliveries []Delivery, arrivals []sim.Time, planes [2]PlaneCounters, mets string, events []trace.Event) {
	t.Helper()
	top := topo.System256()
	pn, err := NewPartitioned(top, shards, DefaultFailover())
	if err != nil {
		t.Fatalf("NewPartitioned(%d): %v", shards, err)
	}
	pn.SetSerial(serial)
	reg := metrics.NewRegistry()
	pn.SetMetrics(reg)
	rec := trace.NewRecorder()
	pn.SetRecorder(rec)
	// A couple of wire faults so failover and CRC paths run contended.
	pn.Network().CutWire(9, topo.NetworkA, 500*sim.Nanosecond)
	pn.Network().CorruptWire(40, topo.NetworkA, 0, 10*sim.Microsecond)

	nodes := top.Nodes()
	deliveries = make([]Delivery, 2*nodes)
	arrivals = make([]sim.Time, nodes)
	pn.OnDeliver(func(src, dst int, payload any, first, last sim.Time) {
		if last > arrivals[dst] {
			arrivals[dst] = last
		}
	})
	for n := 0; n < nodes; n++ {
		n := n
		dst1 := (n*37 + 13) % nodes
		if dst1 == n {
			dst1 = (dst1 + 1) % nodes
		}
		dst2 := (n + 9) % nodes
		sh := pn.Shard(pn.ShardOf(n))
		sh.At(0, func() {
			if err := pn.SendAsync(n, dst1, 512, nil, 0, func(d Delivery) { deliveries[n] = d }); err != nil {
				t.Errorf("SendAsync: %v", err)
			}
		})
		sh.At(2*sim.Microsecond, func() {
			if err := pn.SendAsync(n, dst2, 128, nil, 2*sim.Microsecond, func(d Delivery) { deliveries[nodes+n] = d }); err != nil {
				t.Errorf("SendAsync: %v", err)
			}
		})
	}
	pn.Run()
	if eng := pn.Engine(); eng.MinPostSlack() < eng.Lookahead() {
		t.Errorf("shards=%d serial=%v: burst post slack %.3fns below the lookahead %.3fns", shards, serial, eng.MinPostSlack().Nanos(), eng.Lookahead().Nanos())
	}
	return deliveries, arrivals, [2]PlaneCounters{pn.Plane(0), pn.Plane(1)}, reg.Render(), rec.Events()
}

// TestPartitionedBurstDeterministicAcrossShards pins the load-bearing
// invariant of the partitioned datapath: the event program is a pure
// function of the model, so every aligned shard count — and serial vs
// parallel dispatch — produces identical deliveries, arrival times,
// plane counters, metrics and merged traces for the same contended
// workload.
func TestPartitionedBurstDeterministicAcrossShards(t *testing.T) {
	refD, refA, refP, refM, refE := partBurst(t, 1, false)
	for _, d := range refD {
		if d.Done == 0 && !d.Failed {
			t.Fatalf("burst left an unfinished send: %+v", d)
		}
	}
	if refP[0].Delivered+refP[1].Delivered == 0 {
		t.Fatalf("burst delivered nothing")
	}
	if refP[1].FailedOver == 0 && refP[0].FailedOver == 0 {
		t.Fatalf("burst faults caused no failovers")
	}
	for _, shards := range system256Shards {
		for _, serial := range []bool{false, true} {
			if shards == 1 && !serial {
				continue
			}
			name := fmt.Sprintf("shards=%d serial=%v", shards, serial)
			d, a, p, m, e := partBurst(t, shards, serial)
			for i := range refD {
				if d[i] != refD[i] {
					t.Fatalf("%s: delivery %d diverged:\n got %+v\nwant %+v", name, i, d[i], refD[i])
				}
			}
			for i := range refA {
				if a[i] != refA[i] {
					t.Errorf("%s: arrival at node %d diverged: got %v want %v", name, i, a[i], refA[i])
				}
			}
			if p != refP {
				t.Errorf("%s: plane counters diverged:\n got %+v\nwant %+v", name, p, refP)
			}
			if m != refM {
				t.Errorf("%s: metrics diverged", name)
			}
			if len(e) != len(refE) {
				t.Fatalf("%s: trace length diverged: got %d want %d", name, len(e), len(refE))
			}
			for i := range e {
				if e[i] != refE[i] {
					t.Fatalf("%s: trace event %d diverged:\n got %+v\nwant %+v", name, i, e[i], refE[i])
				}
			}
		}
	}
}

// burstDigest is the SHA-256 of everything partBurst observes: every
// Delivery record, every node's last arrival, both planes' counters,
// the metrics dump and the merged trace.
func burstDigest(t *testing.T, shards int) string {
	t.Helper()
	d, a, p, m, e := partBurst(t, shards, false)
	h := sha256.New()
	for _, x := range d {
		fmt.Fprintf(h, "%+v\n", x)
	}
	for _, x := range a {
		fmt.Fprintf(h, "%d\n", x)
	}
	fmt.Fprintf(h, "%+v\n%s", p, m)
	for _, x := range e {
		fmt.Fprintf(h, "%+v\n", x)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPartitionedBurstDigest pins the partitioned datapath's observable
// history on the contended, faulted burst — cuts, corruption windows,
// open holds and parked walkers included — to the digest of the
// original map-based implementation. Any change to claim order, verdict
// timing, counter placement or trace content fails it.
func TestPartitionedBurstDigest(t *testing.T) {
	const want = "5bcee30488bf60870f14d11f57bb128499199331c3fe3960ee0cf2c65465ee57"
	for _, shards := range []int{1, 4} {
		if got := burstDigest(t, shards); got != want {
			t.Errorf("shards=%d: burst digest %s, want %s", shards, got, want)
		}
	}
}

// partSendAllocs reports the steady-state heap allocations of one
// SendAsync from src to dst, run to completion on an otherwise idle
// System256 partitioned over shards (serial dispatch), after fault has
// been applied and a warm-up has grown every reused buffer. It also
// returns plane A's counters, so callers can check which paths ran.
func partSendAllocs(t *testing.T, shards, src, dst int, fault func(*Network)) (float64, PlaneCounters) {
	t.Helper()
	pn, err := NewPartitioned(topo.System256(), shards, DefaultFailover())
	if err != nil {
		t.Fatalf("NewPartitioned(%d): %v", shards, err)
	}
	pn.SetSerial(true)
	if fault != nil {
		fault(pn.Network())
	}
	sh := pn.Shard(pn.ShardOf(src))
	arrived, delivered := 0, 0
	pn.OnDeliver(func(_, _ int, _ any, _, _ sim.Time) { arrived++ })
	done := func(d Delivery) {
		if !d.Failed {
			delivered++
		}
	}
	fire := func() {
		if err := pn.SendAsync(src, dst, 256, nil, sh.Now(), done); err != nil {
			t.Errorf("SendAsync: %v", err)
		}
	}
	send := func() {
		sh.At(sh.Now()+50*sim.Microsecond, fire)
		pn.Run()
	}
	for i := 0; i < 20; i++ {
		send()
	}
	allocs := testing.AllocsPerRun(100, send)
	if delivered != 20+101 || arrived != delivered {
		t.Fatalf("shards=%d %d->%d: %d of %d sends delivered, %d arrived", shards, src, dst, delivered, 20+101, arrived)
	}
	return allocs, pn.Plane(topo.NetworkA)
}

// farSideWire is the destination-side leaf-to-node wire of src->dst on
// plane A: the fault site of the destination-leg failover and CRC paths.
func farSideWire(t *testing.T, n *Network, src, dst int) (dev, port int) {
	t.Helper()
	path, err := n.Topology().Route(src, dst, topo.NetworkA)
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	last := path.Hops[len(path.Hops)-1]
	return n.Topology().Nodes() + last.Xbar, last.Out
}

// TestPartSendAllocatesNothing pins the split-phase datapath's steady
// state to zero heap allocations per message: psends, remote legs, open
// holds and arrival records come from per-shard free lists, walk claims
// from reused buffers, and every local event is a bound handler with a
// pooled payload. Intra-group, cross-group and cross-shard sends, plus
// the faulted paths — a corrupt far-side wire (CRC NACK, same-plane
// retry, failover) and a cut one (ack-timeout failover, then plane-down
// cache skips) — all run allocation-free with tracing and metrics off.
func TestPartSendAllocatesNothing(t *testing.T) {
	corrupt := func(n *Network) {
		dev, port := farSideWire(t, n, 0, 13)
		n.CorruptWire(dev, port, 0, sim.MaxTime)
	}
	cut := func(n *Network) {
		dev, port := farSideWire(t, n, 0, 13)
		n.CutWire(dev, port, 0)
	}
	cases := []struct {
		name     string
		shards   int
		src, dst int
		fault    func(*Network)
		// ran checks that the intended path really ran on plane A.
		ran func(PlaneCounters) bool
	}{
		{"intra-group", 1, 0, 5, nil, nil},
		{"cross-group", 1, 0, 13, nil, nil},
		{"intra-group", 2, 0, 5, nil, nil},
		{"cross-group", 2, 0, 13, nil, nil},
		{"cross-shard", 2, 3, 120, nil, nil},
		{"crc-retry", 1, 0, 13, corrupt, crcRan},
		{"crc-retry", 2, 0, 13, corrupt, crcRan},
		{"cut-failover", 1, 0, 13, cut, cutRan},
		{"cut-failover", 2, 0, 13, cut, cutRan},
	}
	for _, tc := range cases {
		got, planeA := partSendAllocs(t, tc.shards, tc.src, tc.dst, tc.fault)
		if got != 0 {
			t.Errorf("%s at %d shards: %v allocations per send, want 0", tc.name, tc.shards, got)
		}
		if tc.ran != nil && !tc.ran(planeA) {
			t.Errorf("%s at %d shards: fault path did not run: plane A %+v", tc.name, tc.shards, planeA)
		}
	}
}

func crcRan(c PlaneCounters) bool { return c.CRCErrors > 0 && c.CRCRetries > 0 && c.FailedOver > 0 }
func cutRan(c PlaneCounters) bool { return c.LinkDown > 0 && c.FailedOver > 0 && c.SkippedDown > 0 }
