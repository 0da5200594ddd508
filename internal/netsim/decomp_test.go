package netsim

import (
	"testing"

	"powermanna/internal/metrics"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
)

// decompSum is a decomposition's sum, which must equal the delivery's
// Latency().
func decompSum(c Decomp) sim.Time { return c.Arb + c.Wire + c.Detect + c.Retry }

// checkDecomp asserts the decomposition contract on one outcome: every
// component non-negative, the sum exactly the sender-observed latency,
// and failed sends all detection and backoff (no transit completed).
func checkDecomp(t *testing.T, name string, d Delivery) {
	t.Helper()
	c := d.Decomp
	if c.Arb < 0 || c.Wire < 0 || c.Detect < 0 || c.Retry < 0 {
		t.Errorf("%s: negative component: %+v", name, c)
	}
	if decompSum(c) != d.Latency() {
		t.Errorf("%s: decomposition sum %v != latency %v (%+v)", name, decompSum(c), d.Latency(), c)
	}
	if d.Failed && (c.Arb != 0 || c.Wire != 0) {
		t.Errorf("%s: failed send carries transit components: %+v", name, c)
	}
	if !d.Failed && d.Transit.WireBytes > 0 && c.Wire <= 0 {
		t.Errorf("%s: delivered over the network with zero wire time: %+v", name, c)
	}
}

// TestDecompExactLegacy drives the synchronous protocol through its
// branches — clean delivery, ack-timeout failover, CRC retry, plane-down
// cache hits, total failure — and checks the exact-sum contract on each.
func TestDecompExactLegacy(t *testing.T) {
	cases := []struct {
		name   string
		fault  func(*Network)
		failed bool
	}{
		{"clean", nil, false},
		{"uplink-cut-failover", func(n *Network) {
			n.CutWire(0, topo.NetworkA, 100*sim.Nanosecond)
		}, false},
		{"crc-retry", func(n *Network) {
			path, err := n.Topology().Route(0, 13, topo.NetworkA)
			if err != nil {
				t.Fatalf("route: %v", err)
			}
			last := path.Hops[len(path.Hops)-1]
			n.CorruptWire(n.Topology().Nodes()+last.Xbar, last.Out, 0, 20*sim.Microsecond)
		}, false},
		{"both-planes-cut", func(n *Network) {
			n.CutWire(0, topo.NetworkA, 0)
			n.CutWire(0, topo.NetworkB, 0)
		}, true},
	}
	for _, tc := range cases {
		n := New(topo.System256())
		if tc.fault != nil {
			tc.fault(n)
		}
		tp := n.MustTransport(0, DefaultFailover())
		d, err := tp.Send(0, 13, 256)
		if err != nil {
			t.Fatalf("%s: send: %v", tc.name, err)
		}
		if d.Failed != tc.failed {
			t.Fatalf("%s: failed=%v, want %v", tc.name, d.Failed, tc.failed)
		}
		checkDecomp(t, tc.name, d)
		if tc.name == "uplink-cut-failover" && d.Decomp.Detect < DefaultAckTimeout {
			t.Errorf("failover delivery detect %v < one ack timeout", d.Decomp.Detect)
		}
		// A second send right after a failure hits the plane-down cache:
		// the cached status check must land in Detect.
		if tc.name == "uplink-cut-failover" {
			d2, err := tp.Send(d.Done, 13, 256)
			if err != nil || d2.Failed {
				t.Fatalf("cached-skip send: %v failed=%v", err, d2.Failed)
			}
			checkDecomp(t, "cached-skip", d2)
			if d2.SkippedDown != 1 || d2.Decomp.Detect != DefaultPlaneDownCheck {
				t.Errorf("cached-skip: skipped=%d detect=%v, want 1 skip at %v",
					d2.SkippedDown, d2.Decomp.Detect, DefaultPlaneDownCheck)
			}
		}
	}
}

// TestDecompCleanSendIsAllWire pins the taxonomy's base case: an
// uncontended delivery on a healthy machine is pure wire time.
func TestDecompCleanSendIsAllWire(t *testing.T) {
	n := New(topo.System256())
	d, err := n.MustTransport(0, DefaultFailover()).Send(0, 13, 256)
	if err != nil || d.Failed {
		t.Fatalf("send: %v failed=%v", err, d.Failed)
	}
	c := d.Decomp
	if c.Arb != 0 || c.Detect != 0 || c.Retry != 0 {
		t.Errorf("uncontended send not pure wire: %+v", c)
	}
	if c.Wire != d.Latency() {
		t.Errorf("wire %v != latency %v", c.Wire, d.Latency())
	}
}

// TestDecompExactPartitioned runs the contended, faulted burst through
// the split-phase path at several shard counts and checks every
// delivery's decomposition; contention makes Arb non-zero somewhere,
// faults make Detect and Retry non-zero somewhere.
func TestDecompExactPartitioned(t *testing.T) {
	for _, shards := range []int{1, 4} {
		deliveries, _, _, _, _ := partBurst(t, shards, shards == 1)
		var sawArb, sawDetect, sawRetry bool
		for i, d := range deliveries {
			checkDecomp(t, "burst", d)
			if d.Decomp.Arb > 0 {
				sawArb = true
			}
			if d.Decomp.Detect > 0 {
				sawDetect = true
			}
			if d.Decomp.Retry > 0 {
				sawRetry = true
			}
			_ = i
		}
		if !sawArb || !sawDetect || !sawRetry {
			t.Errorf("shards=%d: burst exercised arb=%v detect=%v retry=%v, want all",
				shards, sawArb, sawDetect, sawRetry)
		}
	}
}

// TestDecompRegistrySumsExact pins the aggregate form of the contract:
// over any run, the four machine-wide wait histograms sum exactly to
// the delivered-latency histogram's sum, with matching counts.
func TestDecompRegistrySumsExact(t *testing.T) {
	top := topo.System256()
	pn, err := NewPartitioned(top, 4, DefaultFailover())
	if err != nil {
		t.Fatalf("NewPartitioned: %v", err)
	}
	pn.SetSerial(true)
	reg := metrics.NewRegistry()
	pn.SetMetrics(reg)
	pn.Network().CutWire(9, topo.NetworkA, 500*sim.Nanosecond)
	for n := 0; n < top.Nodes(); n++ {
		n := n
		dst := (n*37 + 13) % top.Nodes()
		if dst == n {
			dst = (dst + 1) % top.Nodes()
		}
		pn.Shard(pn.ShardOf(n)).At(0, func() {
			if err := pn.SendAsync(n, dst, 512, nil, 0, func(Delivery) {}); err != nil {
				t.Errorf("SendAsync: %v", err)
			}
		})
	}
	pn.Run()
	lat := reg.TimeHistogram(MetricSendLatency, latencyBuckets())
	var sum, count int64
	for _, comp := range waitComponents {
		h := reg.TimeHistogram(MetricSendWaitPrefix+comp, waitBuckets())
		sum += h.Sum()
		if h.Count() != lat.Count() {
			t.Errorf("wait.%s count %d != latency count %d", comp, h.Count(), lat.Count())
		}
		count = h.Count()
	}
	if count == 0 {
		t.Fatal("no deliveries observed")
	}
	if sum != lat.Sum() {
		t.Errorf("wait sums %d != latency sum %d", sum, lat.Sum())
	}
}
