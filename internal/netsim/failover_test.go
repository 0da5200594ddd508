package netsim

import (
	"testing"

	"powermanna/internal/sim"
	"powermanna/internal/topo"
)

// TestPlaneBTransit sends a message end to end over plane B — the
// duplicated network the paper reserves for system software (Section 4).
// Until this test, plane B was only ever route-tested in internal/topo;
// no message had actually traversed it.
func TestPlaneBTransit(t *testing.T) {
	n := New(topo.Cluster8())
	path, err := n.Topology().Route(2, 6, topo.NetworkB)
	if err != nil {
		t.Fatal(err)
	}
	if path.Network != topo.NetworkB || len(path.Hops) != 1 {
		t.Fatalf("unexpected plane-B path: %+v", path)
	}
	tr, err := n.Send(0, path, 64)
	if err != nil {
		t.Fatal(err)
	}
	if tr.LastByte <= tr.FirstByte || tr.Corrupted {
		t.Errorf("plane-B transit broken: %+v", tr)
	}
	// Cluster8 crossbar ordinals: 0 = A, 1 = B. Traffic must have flowed
	// through B and only B.
	if got := n.Crossbar(1).Stats().Opened; got != 1 {
		t.Errorf("plane-B crossbar opened %d circuits, want 1", got)
	}
	if got := n.Crossbar(0).Stats().Opened; got != 0 {
		t.Errorf("plane-A crossbar opened %d circuits, want 0", got)
	}
	// Timing must match the same transit on plane A: the planes are
	// identical hardware.
	n2 := New(topo.Cluster8())
	pa, _ := n2.Topology().Route(2, 6, topo.NetworkA)
	tra, err := n2.Send(0, pa, 64)
	if err != nil {
		t.Fatal(err)
	}
	if tra.LastByte != tr.LastByte {
		t.Errorf("plane timing differs: A %v, B %v", tra.LastByte, tr.LastByte)
	}
}

func TestSendReliableHealthyUsesPlaneA(t *testing.T) {
	n := New(topo.Cluster8())
	d, err := n.MustTransport(0, DefaultFailover()).Send(0, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d.Failed || d.Retried || d.Plane != topo.NetworkA || d.Attempts != 1 {
		t.Errorf("healthy delivery = %+v", d)
	}
	if d.Done != d.Transit.LastByte || d.Latency() <= 0 {
		t.Errorf("timing = %+v", d)
	}
	if a := n.Plane(topo.NetworkA); a.Delivered != 1 || a.Attempts != 1 || a.FailedOver != 0 {
		t.Errorf("plane A counters = %+v", a)
	}
	if b := n.Plane(topo.NetworkB); b.Attempts != 0 {
		t.Errorf("plane B counters = %+v", b)
	}
}

func TestFailoverOnLinkCut(t *testing.T) {
	n := New(topo.Cluster8())
	cfg := DefaultFailover()
	n.CutWire(0, topo.NetworkA, 0) // node 0's plane-A uplink dead from t=0
	d, err := n.MustTransport(0, cfg).Send(0, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d.Failed || !d.Retried || d.Plane != topo.NetworkB || d.Attempts != 2 {
		t.Errorf("delivery = %+v, want retried plane-B success", d)
	}
	// The retry cannot begin before the ack timeout and backoff elapse.
	if d.Done < cfg.AckTimeout+cfg.RetryBackoff {
		t.Errorf("Done = %v, must include detection %v", d.Done, cfg.AckTimeout+cfg.RetryBackoff)
	}
	a, b := n.Plane(topo.NetworkA), n.Plane(topo.NetworkB)
	if a.LinkDown != 1 || a.FailedOver != 1 || a.Delivered != 0 {
		t.Errorf("plane A counters = %+v", a)
	}
	if b.Delivered != 1 {
		t.Errorf("plane B counters = %+v", b)
	}
	// Other sources are untouched by node 0's cut uplink.
	d2, err := n.MustTransport(2, cfg).Send(d.Done, 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Retried || d2.Plane != topo.NetworkA {
		t.Errorf("unaffected pair rerouted: %+v", d2)
	}
}

func TestFailoverOnCorruption(t *testing.T) {
	n := New(topo.Cluster8())
	cfg := DefaultFailover()
	n.CorruptWire(0, topo.NetworkA, 0, 1*sim.Millisecond)
	d, err := n.MustTransport(0, cfg).Send(0, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d.Failed || !d.Retried || d.Plane != topo.NetworkB {
		t.Errorf("delivery = %+v, want retried plane-B success", d)
	}
	// The corruption window outlasts the send, so the same-plane CRC
	// retry (CRCRetries budget) is NACKed too before the failover: two
	// CRC errors on plane A, one spent retry, one real failover.
	a := n.Plane(topo.NetworkA)
	if a.CRCErrors != 2 || a.CRCRetries != 1 || a.FailedOver != 1 {
		t.Errorf("plane A counters = %+v", a)
	}
	// Two NACK returns still detect much faster than one ack timeout.
	if d.Done >= cfg.AckTimeout {
		t.Errorf("NACK path took %v, want under the ack timeout %v", d.Done, cfg.AckTimeout)
	}
}

// TestCRCRetrySamePlane pins the same-plane re-send: when the
// corruption window has passed by the time the retry crosses the wire,
// the message is delivered on its preferred plane — no failover, no
// plane-down poisoning — at the cost of one NACK return plus backoff.
func TestCRCRetrySamePlane(t *testing.T) {
	n := New(topo.Cluster8())
	cfg := DefaultFailover()
	tp := n.MustTransport(0, cfg)
	// A corruption window so short only the first crossing is hit.
	n.CorruptWire(0, topo.NetworkA, 0, 1*sim.Nanosecond)
	d, err := tp.Send(0, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d.Failed || d.Plane != topo.NetworkA || d.Attempts != 2 {
		t.Errorf("delivery = %+v, want second-attempt plane-A success", d)
	}
	a, b := n.Plane(topo.NetworkA), n.Plane(topo.NetworkB)
	if a.CRCErrors != 1 || a.CRCRetries != 1 || a.FailedOver != 0 || a.Delivered != 1 {
		t.Errorf("plane A counters = %+v", a)
	}
	if b.Attempts != 0 {
		t.Errorf("plane B counters = %+v, want untouched", b)
	}
	if down, _ := cachedDown(tp, topo.NetworkA); down {
		t.Error("CRC retry poisoned the plane-down cache")
	}
	// A zero budget restores the old immediate-failover behaviour.
	n.Reset()
	n.CorruptWire(0, topo.NetworkA, 0, 1*sim.Nanosecond)
	cfg.CRCRetries = 0
	d, err = n.MustTransport(0, cfg).Send(0, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d.Failed || d.Plane != topo.NetworkB {
		t.Errorf("zero-budget delivery = %+v, want plane-B failover", d)
	}
}

func TestFailoverOnStuckOutput(t *testing.T) {
	n := New(topo.Cluster8())
	cfg := DefaultFailover()
	// Cluster8 crossbar 0 is plane A; output 1 feeds node 1.
	n.Crossbar(0).StickOutput(1, 0, 1*sim.Second)
	d, err := n.MustTransport(0, cfg).Send(0, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d.Failed || !d.Retried || d.Plane != topo.NetworkB {
		t.Errorf("delivery = %+v, want retried plane-B success", d)
	}
	if a := n.Plane(topo.NetworkA); a.SetupTimeouts != 1 {
		t.Errorf("plane A counters = %+v", a)
	}
}

func TestFailoverOnNIStall(t *testing.T) {
	n := New(topo.Cluster8())
	cfg := DefaultFailover()
	n.NI(0).Links[topo.NetworkA].Stall(0, 1*sim.Millisecond)
	d, err := n.MustTransport(0, cfg).Send(0, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d.Failed || !d.Retried || d.Plane != topo.NetworkB {
		t.Errorf("delivery = %+v, want retried plane-B success", d)
	}
	a := n.Plane(topo.NetworkA)
	if a.Stalled != 1 || a.SetupTimeouts != 1 {
		t.Errorf("plane A counters = %+v", a)
	}
	// The wedged FIFO is abandoned at the setup timeout, not ridden out.
	if d.Done >= 1*sim.Millisecond {
		t.Errorf("Done = %v, want failover well before the stall ends", d.Done)
	}
}

func TestBothPlanesDownFails(t *testing.T) {
	n := New(topo.Cluster8())
	cfg := DefaultFailover()
	n.CutWire(0, topo.NetworkA, 0)
	n.CutWire(0, topo.NetworkB, 0)
	d, err := n.MustTransport(0, cfg).Send(0, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Failed || d.Attempts != 2 {
		t.Errorf("delivery = %+v, want failed after both planes", d)
	}
	perAttempt := cfg.AckTimeout + cfg.RetryBackoff
	if d.Done != 2*perAttempt {
		t.Errorf("give-up time = %v, want %v", d.Done, 2*perAttempt)
	}
}

func TestMidStreamCutCorrupts(t *testing.T) {
	n := New(topo.Cluster8())
	path, _ := n.Topology().Route(0, 1, topo.NetworkA)
	// 64 KB streams for ~1.1 ms; sever the uplink halfway through.
	n.CutWire(0, topo.NetworkA, 500*sim.Microsecond)
	tr, err := n.Send(0, path, 65536)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Corrupted {
		t.Error("message truncated mid-stream not marked corrupted")
	}
	// A later send on the dead wire cannot form a circuit at all.
	if _, err := n.Send(600*sim.Microsecond, path, 64); err == nil {
		t.Error("send over severed wire succeeded")
	}
}

func TestResetClearsPlaneCounters(t *testing.T) {
	n := New(topo.Cluster8())
	n.CutWire(0, topo.NetworkA, 0)
	if _, err := n.MustTransport(0, DefaultFailover()).Send(0, 1, 64); err != nil {
		t.Fatal(err)
	}
	n.Reset()
	if n.Plane(topo.NetworkA).Attempts != 0 || n.Plane(topo.NetworkB).Delivered != 0 {
		t.Error("Reset kept plane counters")
	}
	// Reset also heals wires (Wire.Reset clears fault state).
	d, err := n.MustTransport(0, DefaultFailover()).Send(0, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d.Retried {
		t.Errorf("cut survived Reset: %+v", d)
	}
}

func TestPlaneCounterSetOrdering(t *testing.T) {
	n := New(topo.Cluster8())
	if _, err := n.MustTransport(0, DefaultFailover()).Send(0, 1, 64); err != nil {
		t.Fatal(err)
	}
	set := n.PlaneCounterSet(topo.NetworkA)
	if set.Get("attempts") != 1 || set.Get("delivered") != 1 {
		t.Errorf("counter set = %+v", set)
	}
	want := []string{"attempts", "delivered", "stalled", "link-down", "setup-timeouts", "crc-errors", "crc-retries", "failed-over", "skipped-down", "os-messages", "os-dropped"}
	for i, name := range want {
		if set.Counters[i].Name != name {
			t.Fatalf("counter %d = %q, want %q (render order is the contract)", i, set.Counters[i].Name, name)
		}
	}
}

// TestFailedAttemptHoldsPartialCircuit pins the wormhole teardown
// discipline on the failover path: an attempt that times out at setup
// does not vanish — its partially opened circuit (here the source
// uplink wire on plane A) stays claimed until the ack-timeout teardown,
// so a second message from the same source contends with the wreckage
// of the first. Before this hold, failed attempts released their claims
// retroactively and the follow-up send was impossibly unobstructed.
func TestFailedAttemptHoldsPartialCircuit(t *testing.T) {
	cfg := DefaultFailover()

	// Reference: node 0 -> 2 on a network whose only defect is the stuck
	// output feeding node 1. Output 2 is clean, so the send is fast.
	ref := New(topo.Cluster8())
	ref.Crossbar(0).StickOutput(1, 0, 1*sim.Second)
	d0, err := ref.MustTransport(0, cfg).Send(0, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d0.Retried || d0.Plane != topo.NetworkA {
		t.Fatalf("reference delivery = %+v, want clean plane-A success", d0)
	}
	if d0.Done >= cfg.AckTimeout {
		t.Fatalf("reference Done = %v, expected well under the ack timeout %v", d0.Done, cfg.AckTimeout)
	}

	// Same machine, but node 0 first sends toward the stuck output: that
	// attempt claims the node-0 uplink wire, times out at setup, and
	// holds the partial circuit until its teardown at entry+AckTimeout.
	// A zero ReprobeInterval disables the plane-down cache, so the
	// second send from the same transport tries plane A again instead of
	// skipping it.
	n := New(topo.Cluster8())
	n.Crossbar(0).StickOutput(1, 0, 1*sim.Second)
	cacheless := cfg
	cacheless.ReprobeInterval = 0
	tp := n.MustTransport(0, cacheless)
	d1, err := tp.Send(0, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Failed || !d1.Retried || d1.Plane != topo.NetworkB {
		t.Fatalf("first delivery = %+v, want retried plane-B success", d1)
	}
	d2, err := tp.Send(0, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Retried || d2.SkippedDown != 0 || d2.Plane != topo.NetworkA {
		t.Errorf("second delivery = %+v, want delayed plane-A success", d2)
	}
	// The second send enters at t=0 too, so the held uplink pins its
	// first byte behind the failed attempt's teardown.
	if d2.Done < cfg.AckTimeout {
		t.Errorf("second Done = %v, want at least the first attempt's teardown %v", d2.Done, cfg.AckTimeout)
	}
	if d2.Done <= d0.Done {
		t.Errorf("held circuit added no delay: %v vs unobstructed %v", d2.Done, d0.Done)
	}
}
