package trace

import (
	"strings"
	"testing"

	"powermanna/internal/sim"
)

func TestNilRecorderNoOpsAndAllocatesNothing(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	allocs := testing.AllocsPerRun(200, func() {
		r.Span(NodeTrack(3), "netsim", "msg", 0, 10)
		r.SpanArg(NodeTrack(3), "netsim", "msg", 0, 10, "detail")
		r.Instant(NodeTrack(3), "failover", "hit", 5)
		r.InstantArg(NodeTrack(3), "failover", "hit", 5, "detail")
	})
	if allocs != 0 {
		t.Errorf("nil recorder allocated %.1f times per run, want 0", allocs)
	}
	if r.Len() != 0 || r.Events() != nil {
		t.Error("nil recorder holds events")
	}
}

func TestTrackIDsStableAndDisjoint(t *testing.T) {
	ids := []TrackID{
		NodeTrack(0), NodeTrack(127),
		CPUTrack(0, 0), CPUTrack(0, 1), CPUTrack(127, 1),
		XbarPortTrack(0, 0), XbarPortTrack(47, 15),
		WireTrack(0, 0, 0), WireTrack(0, 0, 1), WireTrack(175, 15, 0),
		DispatchTrack(0), DispatchTrack(2),
		OSTrack(),
	}
	seen := map[TrackID]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("track id collision at %d (%s)", int64(id), id.Name())
		}
		seen[id] = true
	}
	// Round trips: class and index survive packing.
	if x := XbarPortTrack(7, 11); x.Class() != ClassXbarPort || x.Index() != 7*portStride+11 {
		t.Errorf("xbar track round trip: class %d index %d", x.Class(), x.Index())
	}
	// Names are topology-derived and stable.
	for id, want := range map[TrackID]string{
		NodeTrack(5):        "node 5",
		CPUTrack(3, 0):      "node 3 EU",
		CPUTrack(3, 1):      "node 3 SU",
		XbarPortTrack(2, 9): "xbar 2 out 9",
		WireTrack(10, 1, 0): "wire 10.1 out",
		WireTrack(10, 1, 1): "wire 10.1 in",
		DispatchTrack(0):    "dispatcher addr",
		DispatchTrack(2):    "dispatcher data m1",
		OSTrack():           "os stream",
	} {
		if got := id.Name(); got != want {
			t.Errorf("Name(%d) = %q, want %q", int64(id), got, want)
		}
	}
}

func TestSpanClampsInvertedWindow(t *testing.T) {
	r := NewRecorder()
	r.Span(NodeTrack(0), "t", "x", 10, 5)
	if e := r.Events()[0]; e.End != e.Start {
		t.Errorf("inverted span not clamped: [%v, %v]", e.Start, e.End)
	}
}

func sample() *Recorder {
	r := NewRecorder()
	r.SpanArg(NodeTrack(0), "netsim", "msg", 0, 10*sim.Microsecond, "0->5 plane A")
	r.Span(NodeTrack(0), "netsim", "setup", 0, 2*sim.Microsecond)
	r.Span(WireTrack(0, 0, 0), "link", "hold", 0, 10*sim.Microsecond)
	r.Instant(NodeTrack(0), "netsim", "close", 10*sim.Microsecond)
	r.Span(NodeTrack(0), "netsim", "msg", 20*sim.Microsecond, 24*sim.Microsecond)
	return r
}

func TestWriteChromeDeterministicAndWellFormed(t *testing.T) {
	var a, b strings.Builder
	if err := WriteChrome(&a, sample()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, sample()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two exports of identical events differ")
	}
	out := a.String()
	for _, want := range []string{
		`{"displayTimeUnit":"ms","traceEvents":[`,
		`"name":"process_name","args":{"name":"nodes"}`,
		`"name":"thread_name","args":{"name":"node 0"}`,
		`"ph":"X"`, `"ts":0.000000`, `"dur":10.000000`,
		`"ph":"i"`, `"s":"t"`,
		`"args":{"detail":"0->5 plane A"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome output missing %q", want)
		}
	}
	if !strings.HasSuffix(out, "\n]}\n") {
		t.Error("chrome output not terminated")
	}
}

func TestMicrosExact(t *testing.T) {
	for in, want := range map[sim.Time]string{
		0:                                       "0.000000",
		1:                                       "0.000001",
		999_999:                                 "0.999999",
		sim.Microsecond:                         "1.000000",
		12*sim.Microsecond + 345*sim.Nanosecond: "12.345000",
	} {
		if got := micros(in); got != want {
			t.Errorf("micros(%d) = %q, want %q", int64(in), got, want)
		}
	}
}

func TestProfileSelfTimeSubtractsNestedChildren(t *testing.T) {
	var b strings.Builder
	if err := WriteProfile(&b, sample(), 0); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// "msg" totals 14 µs over two spans; "setup" (2 µs) nests inside the
	// first, so msg self = 12 µs.
	for _, want := range []string{
		"node 0", "msg", "14.000", "12.000", "setup", "2.000",
		"wire 0.0 out", "hold", "10.000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("profile missing %q in:\n%s", want, out)
		}
	}
}

func TestEnabledRecorderRecords(t *testing.T) {
	r := NewRecorder()
	if !r.Enabled() {
		t.Fatal("fresh recorder disabled")
	}
	r.Span(NodeTrack(0), "c", "n", 1, 2)
	r.Instant(NodeTrack(0), "c", "i", 3)
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
}
