package netsim

import (
	"errors"
	"testing"

	"powermanna/internal/sim"
	"powermanna/internal/topo"
	"powermanna/internal/xbar"
)

func TestClusterTransitTiming(t *testing.T) {
	n := New(topo.Cluster8())
	path, err := n.Topology().Route(0, 1, topo.NetworkA)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := n.Send(0, path, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Wire bytes: 1 route + 2 len + 8 payload + 2 CRC + 1 close = 14.
	if tr.WireBytes != 14 {
		t.Errorf("WireBytes = %d, want 14", tr.WireBytes)
	}
	// Setup: ~1 byte time + propagation + 0.2us route setup.
	if tr.SetupDone < xbar.RouteSetup || tr.SetupDone > xbar.RouteSetup+100*sim.Nanosecond {
		t.Errorf("SetupDone = %v, want ~0.2us + wire entry", tr.SetupDone)
	}
	if tr.FirstByte <= tr.SetupDone || tr.LastByte <= tr.FirstByte {
		t.Errorf("ordering violated: %+v", tr)
	}
	// Body streams 13 bytes at 60 MB/s ≈ 217 ns.
	body := tr.LastByte - tr.FirstByte
	if body < 200*sim.Nanosecond || body > 240*sim.Nanosecond {
		t.Errorf("body time = %v, want ~217ns", body)
	}
}

func TestLargeMessageRate(t *testing.T) {
	n := New(topo.Cluster8())
	path, _ := n.Topology().Route(0, 1, topo.NetworkA)
	const size = 65536
	tr, err := n.Send(0, path, size)
	if err != nil {
		t.Fatal(err)
	}
	// 64 KB at 60 MB/s ≈ 1.092 ms end to end.
	rate := float64(size) / tr.LastByte.Seconds()
	if rate < 55e6 || rate > 61e6 {
		t.Errorf("achieved rate = %g B/s, want ~60 MB/s", rate)
	}
}

func TestOutputContentionDelaysSecondMessage(t *testing.T) {
	n := New(topo.Cluster8())
	// Nodes 0 and 2 both send to node 1: same crossbar output channel.
	p0, _ := n.Topology().Route(0, 1, topo.NetworkA)
	p2, _ := n.Topology().Route(2, 1, topo.NetworkA)
	tr0, _ := n.Send(0, p0, 1024)
	tr2, _ := n.Send(0, p2, 1024)
	if tr2.SetupDone <= tr0.LastByte-n.linkCfg.PropagationDelay-n.linkCfg.TransferTime(1) {
		t.Errorf("second circuit set up at %v before first released (%v)", tr2.SetupDone, tr0.LastByte)
	}
	if n.Crossbar(0).Stats().Blocked != 1 {
		t.Errorf("Blocked = %d, want 1", n.Crossbar(0).Stats().Blocked)
	}
}

func TestDistinctDestinationsDoNotContend(t *testing.T) {
	n := New(topo.Cluster8())
	p01, _ := n.Topology().Route(0, 1, topo.NetworkA)
	p23, _ := n.Topology().Route(2, 3, topo.NetworkA)
	tr1, _ := n.Send(0, p01, 1024)
	tr2, _ := n.Send(0, p23, 1024)
	if tr1.SetupDone != tr2.SetupDone {
		t.Errorf("independent circuits interfered: %v vs %v", tr1.SetupDone, tr2.SetupDone)
	}
}

func TestSystem256ThreeHopTransit(t *testing.T) {
	n := New(topo.System256())
	path, err := n.Topology().Route(0, 127, topo.NetworkA)
	if err != nil {
		t.Fatal(err)
	}
	if len(path.Hops) != 3 {
		t.Fatalf("hops = %d", len(path.Hops))
	}
	tr, err := n.Send(0, path, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Setup must include 3 route setups and 2 transceiver crossings.
	min := 3*xbar.RouteSetup + 2*300*sim.Nanosecond
	if tr.SetupDone < min {
		t.Errorf("SetupDone = %v, want >= %v", tr.SetupDone, min)
	}
	// Still comfortably under 4 µs for a small message, the paper's
	// system-level latency bound ("less than 4 µs latency for small
	// messages", Section 1).
	if tr.LastByte > 4*sim.Microsecond {
		t.Errorf("small-message network time = %v, want < 4us", tr.LastByte)
	}
}

func TestSelfDelivery(t *testing.T) {
	n := New(topo.Cluster8())
	path, _ := n.Topology().Route(4, 4, topo.NetworkA)
	tr, err := n.Send(100, path, 64)
	if err != nil {
		t.Fatal(err)
	}
	if tr.LastByte != 100 || tr.WireBytes != 0 {
		t.Errorf("self delivery = %+v", tr)
	}
}

func TestNegativePayloadRejected(t *testing.T) {
	n := New(topo.Cluster8())
	path, _ := n.Topology().Route(0, 1, topo.NetworkA)
	if _, err := n.Send(0, path, -1); err == nil {
		t.Error("negative payload accepted")
	}
}

func TestReset(t *testing.T) {
	n := New(topo.Cluster8())
	path, _ := n.Topology().Route(0, 1, topo.NetworkA)
	n.Send(0, path, 64)
	n.Reset()
	for i := 0; i < n.Topology().Crossbars(); i++ {
		if n.Crossbar(i).Stats().Opened != 0 {
			t.Error("Reset incomplete")
		}
	}
	tr, _ := n.Send(0, path, 64)
	if tr.SetupDone > xbar.RouteSetup+100*sim.Nanosecond {
		t.Error("timelines not reset")
	}
}

// TestFaultWireOutOfRangePanics pins the wire-table bounds of fault
// injection: a port beyond the crossbar width or a device beyond the
// topology must panic instead of faulting another device's wire.
func TestFaultWireOutOfRangePanics(t *testing.T) {
	n := New(topo.Cluster8())
	devs := n.Topology().Nodes() + n.Topology().Crossbars()
	for _, c := range []struct{ dev, port int }{{0, xbar.Ports}, {0, -1}, {devs, 0}, {-1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CutWire(%d, %d) did not panic", c.dev, c.port)
				}
			}()
			n.CutWire(c.dev, c.port, 0)
		}()
	}
}

// TestRawSendDownError pins the raw Send failure contract: a header that
// reaches a severed wire returns a *DownError naming the plane, the cut
// and the time the header reached the wire, and the failed attempt
// claims nothing — a later send over the wire and crossbar output it
// walked first is not delayed.
func TestRawSendDownError(t *testing.T) {
	n, fresh := New(topo.Cluster8()), New(topo.Cluster8())
	cutPath, _ := n.Topology().Route(0, 1, topo.NetworkA)
	sharing, _ := n.Topology().Route(0, 2, topo.NetworkA) // same uplink
	last := cutPath.Hops[len(cutPath.Hops)-1]
	n.CutWire(n.Topology().Nodes()+last.Xbar, last.Out, 0)

	// On an idle network the header reaches the last wire at SetupDone.
	want, err := fresh.Send(0, cutPath, 64)
	if err != nil {
		t.Fatal(err)
	}
	_, err = n.Send(0, cutPath, 64)
	var down *DownError
	if !errors.As(err, &down) {
		t.Fatalf("Send across a cut wire returned %v, want *DownError", err)
	}
	if *down != (DownError{Plane: topo.NetworkA, Cut: true, At: want.SetupDone}) {
		t.Errorf("DownError = %+v, want plane A, cut, at %v", *down, want.SetupDone)
	}

	fresh.Reset()
	wantNext, _ := fresh.Send(0, sharing, 64)
	next, err := n.Send(0, sharing, 64)
	if err != nil {
		t.Fatal(err)
	}
	if next != wantNext {
		t.Errorf("send after the failed attempt = %+v, want the idle-network %+v", next, wantNext)
	}
	if got := n.Crossbar(last.Xbar).Stats(); got.Blocked != 0 {
		t.Errorf("crossbar stats after the failed attempt = %+v, want nothing blocked", got)
	}
}
