package netsim

import (
	"fmt"
	"strings"
	"testing"

	"powermanna/internal/metrics"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
)

// TestTransportRouteCache verifies the transport's row of the shared
// route table returns the same path the topology computes, on both
// planes, and keeps returning it on repeated lookups.
func TestTransportRouteCache(t *testing.T) {
	n := New(topo.Cluster8())
	tp := n.MustTransport(2, DefaultFailover())
	for _, plane := range []int{topo.NetworkA, topo.NetworkB} {
		want, err := n.Topology().Route(2, 6, plane)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			got, err := tp.Route(6, plane)
			if err != nil {
				t.Fatal(err)
			}
			if got.Network != want.Network || got.Dst != want.Dst || len(got.Hops) != len(want.Hops) {
				t.Errorf("cached route differs from topo.Route: %+v vs %+v", got, want)
			}
		}
	}
}

// TestTransportRouteHitAllocatesNothing pins the warm half of the route
// table: once a (dst, plane) slot is filled, a lookup is one index and
// one atomic load.
func TestTransportRouteHitAllocatesNothing(t *testing.T) {
	n := New(topo.System256())
	tp := n.MustTransport(0, DefaultFailover())
	if _, err := tp.Route(127, topo.NetworkB); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := tp.Route(127, topo.NetworkB); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Transport.Route allocates %.1f times, want 0", allocs)
	}
}

// TestTransportOutOfRange pins the constructor's validation.
func TestTransportOutOfRange(t *testing.T) {
	n := New(topo.Cluster8())
	if _, err := n.Transport(-1, DefaultFailover()); err == nil {
		t.Error("Transport(-1) succeeded")
	}
	if _, err := n.Transport(8, DefaultFailover()); err == nil {
		t.Error("Transport(nodes) succeeded")
	}
}

// TestPlaneDownCacheSkipsDetection is the tentpole's core claim: the
// first message to a dead plane pays the full acknowledgment timeout to
// learn of the death, and every following message pays only the cached
// status check until the reprobe interval expires.
func TestPlaneDownCacheSkipsDetection(t *testing.T) {
	n := New(topo.Cluster8())
	cfg := DefaultFailover()
	tp := n.MustTransport(0, cfg)
	n.CutWire(0, topo.NetworkA, 0)

	first, err := tp.Send(0, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if first.Failed || first.Plane != topo.NetworkB || !first.Retried || first.SkippedDown != 0 {
		t.Fatalf("first delivery = %+v, want real plane-A detection then failover", first)
	}
	if first.Latency() < cfg.AckTimeout {
		t.Errorf("first latency %v did not pay the ack timeout %v", first.Latency(), cfg.AckTimeout)
	}
	if down, until := cachedDown(tp, topo.NetworkA); !down || until <= 0 {
		t.Fatalf("plane A not cached down after detection (down=%v until=%v)", down, until)
	}

	// Well inside the reprobe window: the cache short-circuits plane A.
	at := 60 * sim.Microsecond
	second, err := tp.Send(at, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if second.Failed || second.Plane != topo.NetworkB || second.SkippedDown != 1 || second.Attempts != 1 {
		t.Fatalf("second delivery = %+v, want one cached skip then plane B", second)
	}
	if !second.Retried {
		t.Error("cached-skip delivery not marked Retried (it missed its first-choice plane)")
	}
	// The per-message overhead dropped from the full detection window to
	// the cached status check: the plane-B circuit starts forming
	// PlaneDownCheck after the requested entry, not AckTimeout+backoff.
	if gap := second.Transit.SetupDone - at; gap >= cfg.AckTimeout {
		t.Errorf("cached send still waited %v before plane B, want ~%v", gap, cfg.PlaneDownCheck)
	}
	if second.Latency() >= first.Latency() {
		t.Errorf("cached latency %v not below detection latency %v", second.Latency(), first.Latency())
	}
	if got := n.Plane(topo.NetworkA).SkippedDown; got != 1 {
		t.Errorf("plane-A skipped-down counter = %d, want 1", got)
	}
}

// TestPlaneDownReprobe verifies the deterministic reprobe: once the
// interval expires the driver risks a real plane-A attempt again (and
// re-pays the detection window when the plane is still dead).
func TestPlaneDownReprobe(t *testing.T) {
	n := New(topo.Cluster8())
	cfg := DefaultFailover()
	tp := n.MustTransport(0, cfg)
	n.CutWire(0, topo.NetworkA, 0)

	if _, err := tp.Send(0, 1, 64); err != nil {
		t.Fatal(err)
	}
	_, reprobeAt := cachedDown(tp, topo.NetworkA)
	d, err := tp.Send(reprobeAt, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d.SkippedDown != 0 || d.Attempts != 2 {
		t.Fatalf("reprobe delivery = %+v, want a real plane-A attempt again", d)
	}
	if d.Latency() < cfg.AckTimeout {
		t.Errorf("reprobe latency %v did not re-pay the detection window", d.Latency())
	}
	if down, until := cachedDown(tp, topo.NetworkA); !down || until <= reprobeAt {
		t.Errorf("failed reprobe did not re-arm the cache (down=%v until=%v)", down, until)
	}
}

// TestPlaneDownRecovery verifies a healed plane is picked back up: an NI
// stall window ends, the reprobe succeeds, and the cache clears.
func TestPlaneDownRecovery(t *testing.T) {
	n := New(topo.Cluster8())
	cfg := DefaultFailover()
	tp := n.MustTransport(0, cfg)
	stallEnd := 4 * cfg.SetupTimeout
	n.NI(0).Links[topo.NetworkA].Stall(0, stallEnd)

	d, err := tp.Send(0, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d.Plane != topo.NetworkB {
		t.Fatalf("stalled plane A still delivered: %+v", d)
	}
	_, reprobeAt := cachedDown(tp, topo.NetworkA)
	after, err := tp.Send(reprobeAt+stallEnd, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if after.Plane != topo.NetworkA || after.Retried {
		t.Fatalf("healed plane A not reused: %+v", after)
	}
	if down, _ := cachedDown(tp, topo.NetworkA); down {
		t.Error("successful delivery did not clear the plane-down cache")
	}
}

// TestPlaneDownCacheNeverLosesMessages pins the invariant behind the
// cache: a message is reported failed only after a real attempt on every
// wired plane. Even with both planes cached down over a perfectly
// healthy network, the second pass probes the skipped planes for real
// and the message delivers — the cache is a latency optimisation, not an
// availability decision.
func TestPlaneDownCacheNeverLosesMessages(t *testing.T) {
	n := New(topo.Cluster8())
	cfg := DefaultFailover()
	tp := n.MustTransport(0, cfg)
	tp.markDown(topo.NetworkA, 0)
	tp.markDown(topo.NetworkB, 0)

	d, err := tp.Send(1*sim.Microsecond, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d.Failed {
		t.Fatalf("message lost behind stale cache entries: %+v", d)
	}
	if d.SkippedDown != 2 || d.Attempts != 1 || d.Plane != topo.NetworkA {
		t.Errorf("delivery = %+v, want both planes skipped then a real plane-A probe", d)
	}
	if down, _ := cachedDown(tp, topo.NetworkA); down {
		t.Error("successful probe did not clear the stale plane-A entry")
	}
}

// TestTransportTenantHistograms pins the transport tenant label: a
// labelled transport's delivered sends land in the tenant's latency and
// wait histograms whether the label precedes or follows SetMetrics,
// transports sharing a label share its histograms, and unlabelled sends
// stay out of them.
func TestTransportTenantHistograms(t *testing.T) {
	n := New(topo.Cluster8())
	a := n.MustTransport(0, DefaultFailover())
	a.SetTenant("app")
	reg := metrics.NewRegistry()
	n.SetMetrics(reg)
	b := n.MustTransport(1, DefaultFailover())
	b.SetTenant("app")
	plain := n.MustTransport(2, DefaultFailover())
	for i, tp := range []*Transport{a, b, plain} {
		if _, err := tp.Send(sim.Time(i)*10*sim.Microsecond, 5, 64); err != nil {
			t.Fatal(err)
		}
	}
	lat := reg.TimeHistogram(MetricSendLatencyTenantPrefix+"app", tenantLatencyBuckets())
	wire := reg.TimeHistogram(MetricSendWaitPrefix+"wire.app", waitBuckets())
	if lat.Count() != 2 || wire.Count() != 2 {
		t.Errorf("tenant histograms counted %d latencies and %d wire waits, want 2 each", lat.Count(), wire.Count())
	}
	if all := reg.TimeHistogram(MetricSendLatency, latencyBuckets()); all.Count() != 3 {
		t.Errorf("machine-wide latency count %d, want 3", all.Count())
	}
}

// TestFailoverContendsWithOSStream verifies the plane-B background load
// is felt exactly where the hardware would impose it: a failover retry
// whose plane-B entry lands during an OS message from the same node
// queues behind it on the shared uplink, arriving later than over an
// idle plane B.
func TestFailoverContendsWithOSStream(t *testing.T) {
	// The stream rotates sources every DefaultOSInterval, so node 0 sends
	// OS messages at 0, 80 us, 160 us, ... A reliable send posted at
	// 68 us detects the cut plane A at 80 us and retries on plane B at
	// 80.5 us — mid-way through node 0's 80 us OS message.
	at := 68 * sim.Microsecond
	run := func(withStream bool) (Delivery, PlaneCounters) {
		n := New(topo.Cluster8())
		if withStream {
			n.AttachOSStream(DefaultOSStream())
		}
		tp := n.MustTransport(0, DefaultFailover())
		n.CutWire(0, topo.NetworkA, 0)
		d, err := tp.Send(at, 1, 64)
		if err != nil {
			t.Fatal(err)
		}
		if d.Failed || d.Plane != topo.NetworkB {
			t.Fatalf("delivery (stream=%v) = %+v, want plane-B failover", withStream, d)
		}
		return d, n.Plane(topo.NetworkB)
	}
	idle, _ := run(false)
	loaded, pb := run(true)
	if pb.OSMessages == 0 {
		t.Fatal("no OS messages injected before the retry")
	}
	if loaded.Done <= idle.Done {
		t.Errorf("retry with OS stream done at %v, idle plane B at %v: no contention felt", loaded.Done, idle.Done)
	}
}

// TestResetRestoresByteIdenticalRun is the Reset contract of the
// transport layer: after a faulted run with an OS stream, Reset must
// clear the plane counters, the plane-down caches and the OS stream so
// an identical re-run renders byte-identically.
func TestResetRestoresByteIdenticalRun(t *testing.T) {
	n := New(topo.Cluster8())
	n.AttachOSStream(DefaultOSStream())
	cfg := DefaultFailover()
	tp := n.MustTransport(0, cfg)

	run := func() string {
		n.CutWire(0, topo.NetworkA, 0)
		var out strings.Builder
		for i := 0; i < 6; i++ {
			d, err := tp.Send(sim.Time(i)*25*sim.Microsecond, 1+i%7, 256)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "msg %d: plane=%d attempts=%d skipped=%d done=%v failed=%v\n",
				i, d.Plane, d.Attempts, d.SkippedDown, d.Done, d.Failed)
		}
		for _, p := range []int{topo.NetworkA, topo.NetworkB} {
			set := n.PlaneCounterSet(p)
			out.WriteString(set.Render())
		}
		return out.String()
	}

	first := run()
	if !strings.Contains(first, "skipped=1") {
		t.Fatalf("faulted run never hit the plane-down cache:\n%s", first)
	}

	n.Reset()
	if down, _ := cachedDown(tp, topo.NetworkA); down {
		t.Error("Reset kept the plane-down cache")
	}
	for _, p := range []int{topo.NetworkA, topo.NetworkB} {
		if c := n.Plane(p); c != (PlaneCounters{}) {
			t.Errorf("Reset kept plane %s counters: %+v", planeName(p), c)
		}
	}

	second := run()
	if first != second {
		t.Errorf("re-run after Reset not byte-identical\nfirst:\n%s\nsecond:\n%s", first, second)
	}
}

var (
	sinkNet  *Network
	sinkPath *topo.Path
)

// BenchmarkNewNetwork builds a System256 network and the transports of
// its 128 nodes (the 256 processors are two per node) over one
// topology, as every fault-campaign row does: one Transports slab, and
// no wires, which a lazily wired network carves only once a send
// touches them.
func BenchmarkNewNetwork(b *testing.B) {
	top := topo.System256()
	cfg := DefaultFailover()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := New(top)
		n.Transports(cfg)
		sinkNet = n
	}
}

// BenchmarkTransportRouteHit cycles one System256 transport over every
// destination on both planes after a warm-up pass: each iteration is a
// route hit.
func BenchmarkTransportRouteHit(b *testing.B) {
	n := New(topo.System256())
	tp := n.MustTransport(5, DefaultFailover())
	nodes := n.Topology().Nodes()
	for i := 0; i < 2*nodes; i++ {
		if _, err := tp.Route(i/2, i%2); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	dst, plane := 0, 0
	for i := 0; i < b.N; i++ {
		p, err := tp.Route(dst, plane)
		if err != nil {
			b.Fatal(err)
		}
		sinkPath = p
		if plane ^= 1; plane == 0 {
			if dst++; dst == nodes {
				dst = 0
			}
		}
	}
}

// TestTransportSendAllocatesNothing pins the synchronous executor's
// steady state to zero heap allocations per message: a healthy
// Transport.Send and a raw Network.Send walk into the network's reused
// claim buffers, on a one-crossbar and a three-crossbar route.
func TestTransportSendAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		topo     *topo.Topology
		src, dst int
	}{
		{topo.Cluster8(), 0, 5},
		{topo.System256(), 0, 127},
	} {
		n := New(tc.topo)
		tp := n.MustTransport(tc.src, DefaultFailover())
		path, err := tp.Route(tc.dst, topo.NetworkA)
		if err != nil {
			t.Fatal(err)
		}
		var at sim.Time
		sends := []struct {
			name string
			send func()
		}{
			{"Transport.Send", func() {
				at += 50 * sim.Microsecond
				if d, err := tp.Send(at, tc.dst, 256); err != nil || d.Failed {
					t.Fatalf("Send: %+v, %v", d, err)
				}
			}},
			{"Network.Send", func() {
				at += 50 * sim.Microsecond
				if _, err := n.Send(at, *path, 256); err != nil {
					t.Fatalf("Send: %v", err)
				}
			}},
		}
		for _, s := range sends {
			if got := testing.AllocsPerRun(100, s.send); got != 0 {
				t.Errorf("%s on %s: %v allocations per send, want 0", s.name, tc.topo.Name(), got)
			}
		}
	}
}

// cachedDown reads the transport's plane-down cache entry for plane:
// whether sends currently skip it, and until when.
func cachedDown(tp *Transport, plane int) (down bool, reprobeAt sim.Time) {
	return tp.down[plane].down, tp.down[plane].reprobeAt
}
