package mpl

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"powermanna/internal/metrics"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
)

func TestSendRecvRoundTrip(t *testing.T) {
	w := NewWorld(topo.Cluster8())
	msg := []byte("hello from node 0")
	if err := w.Send(0, 3, 7, msg); err != nil {
		t.Fatal(err)
	}
	got, err := w.Recv(3, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("payload = %q", got)
	}
	if w.Now(3) <= w.Now(1) {
		t.Error("receiver clock did not advance")
	}
	msgs, payload := w.Stats()
	if msgs != 1 || payload != int64(len(msg)) {
		t.Errorf("stats = %d msgs %d bytes", msgs, payload)
	}
}

func TestRecvWithoutMessageFails(t *testing.T) {
	w := NewWorld(topo.Cluster8())
	if _, err := w.Recv(1, 0, 9); err == nil {
		t.Error("recv of absent message succeeded")
	}
}

func TestSelfSendRejected(t *testing.T) {
	w := NewWorld(topo.Cluster8())
	if err := w.Send(2, 2, 0, nil); err == nil {
		t.Error("self-send accepted")
	}
}

func TestTagMatching(t *testing.T) {
	w := NewWorld(topo.Cluster8())
	if err := w.Send(0, 1, 10, []byte("ten")); err != nil {
		t.Fatal(err)
	}
	if err := w.Send(0, 1, 20, []byte("twenty")); err != nil {
		t.Fatal(err)
	}
	got, err := w.Recv(1, 0, 20)
	if err != nil || string(got) != "twenty" {
		t.Errorf("tag 20 recv = %q, %v", got, err)
	}
	got, err = w.Recv(1, 0, 10)
	if err != nil || string(got) != "ten" {
		t.Errorf("tag 10 recv = %q, %v", got, err)
	}
}

func TestCausality(t *testing.T) {
	// A receive can never complete before the send started.
	w := NewWorld(topo.Cluster8())
	w.Compute(0, 100*sim.Microsecond)
	sendStart := w.Now(0)
	if err := w.Send(0, 5, 0, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Recv(5, 0, 0); err != nil {
		t.Fatal(err)
	}
	if w.Now(5) <= sendStart {
		t.Errorf("receiver finished at %v before send started at %v", w.Now(5), sendStart)
	}
}

func TestLargeSendOccupiesSender(t *testing.T) {
	w := NewWorld(topo.Cluster8())
	small := NewWorld(topo.Cluster8())
	if err := w.Send(0, 1, 0, make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	if err := small.Send(0, 1, 0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	// A 64 KB eager send holds the sender roughly for the link time
	// (~1.09 ms); a 64 B send returns in microseconds.
	if w.Now(0) < 500*sim.Microsecond {
		t.Errorf("64 KB send released sender at %v, want ~1ms", w.Now(0))
	}
	if small.Now(0) > 10*sim.Microsecond {
		t.Errorf("64 B send held sender until %v", small.Now(0))
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	w := NewWorld(topo.Cluster8())
	// Skew the ranks.
	for r := 0; r < w.Ranks(); r++ {
		w.Compute(r, sim.Time(r)*10*sim.Microsecond)
	}
	latest := w.MaxTime()
	if err := w.Barrier(0); err != nil {
		t.Fatal(err)
	}
	// Every rank's clock is now past the last entrant's entry time.
	for r := 0; r < w.Ranks(); r++ {
		if w.Now(r) < latest {
			t.Errorf("rank %d left barrier at %v before last entry %v", r, w.Now(r), latest)
		}
	}
}

func TestBcastDeliversToAll(t *testing.T) {
	w := NewWorld(topo.Cluster8())
	vec := []float64{1.5, -2.25, 3.125}
	out, err := w.Bcast(vec, 1)
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range out {
		if len(v) != len(vec) {
			t.Fatalf("rank %d got %d elements", r, len(v))
		}
		for i := range vec {
			if v[i] != vec[i] {
				t.Errorf("rank %d element %d = %g", r, i, v[i])
			}
		}
	}
}

func TestAllReduceSums(t *testing.T) {
	w := NewWorld(topo.Cluster8())
	p := w.Ranks()
	contrib := make([][]float64, p)
	want := make([]float64, 4)
	for r := 0; r < p; r++ {
		contrib[r] = []float64{float64(r), 1, float64(r * r), 0.5}
		for i := range want {
			want[i] += contrib[r][i]
		}
	}
	got, err := w.AllReduce(contrib, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("element %d = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestGatherCollects(t *testing.T) {
	w := NewWorld(topo.Cluster8())
	p := w.Ranks()
	contrib := make([][]float64, p)
	for r := 0; r < p; r++ {
		contrib[r] = []float64{float64(r * 10)}
	}
	out, err := w.Gather(contrib, 3)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		if out[r][0] != float64(r*10) {
			t.Errorf("rank %d gathered %g", r, out[r][0])
		}
	}
}

func TestAllReduceOnSystem256(t *testing.T) {
	w := NewWorld(topo.System256())
	p := w.Ranks()
	contrib := make([][]float64, p)
	for r := 0; r < p; r++ {
		contrib[r] = []float64{1}
	}
	got, err := w.AllReduce(contrib, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != float64(p) {
		t.Errorf("sum of ones = %g, want %d", got[0], p)
	}
	// Critical path: O(log P) small-message latencies, so a 128-rank
	// allreduce of one element finishes within tens of microseconds
	// (7 levels up + 7 down at < 4 µs per hop plus overheads).
	if w.MaxTime() > 200*sim.Microsecond {
		t.Errorf("128-rank allreduce took %v, expected tens of us", w.MaxTime())
	}
	if CriticalDepth(p) != 7 {
		t.Errorf("depth = %d, want 7", CriticalDepth(p))
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() sim.Time {
		w := NewWorld(topo.System256())
		contrib := make([][]float64, w.Ranks())
		for r := range contrib {
			contrib[r] = []float64{float64(r)}
		}
		if _, err := w.AllReduce(contrib, 1); err != nil {
			t.Fatal(err)
		}
		return w.MaxTime()
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Errorf("non-deterministic: %v vs %v", a, b)
	}
}

func TestReset(t *testing.T) {
	w := NewWorld(topo.Cluster8())
	if err := w.Send(0, 1, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	w.Reset()
	if w.MaxTime() != 0 {
		t.Error("clocks not reset")
	}
	if _, err := w.Recv(1, 0, 0); err == nil {
		t.Error("pending queue not reset")
	}
	if msgs, _ := w.Stats(); msgs != 0 {
		t.Error("stats not reset")
	}
}

func TestCollectiveErrorPaths(t *testing.T) {
	w := NewWorld(topo.Cluster8())
	// AllReduce with wrong contribution count.
	if _, err := w.AllReduce([][]float64{{1}}, 0); err == nil {
		t.Error("short contribution list accepted")
	}
	// Mismatched vector lengths.
	bad := make([][]float64, w.Ranks())
	for r := range bad {
		bad[r] = []float64{1}
	}
	bad[3] = []float64{1, 2}
	if _, err := w.AllReduce(bad, 0); err == nil {
		t.Error("ragged vectors accepted")
	}
	// Non-zero collective root is rejected.
	if err := w.bcastSignal(2, 0, nil); err == nil {
		t.Error("non-zero root accepted")
	}
}

// BenchmarkSendSystem256 measures the per-message host cost of the MPL
// send path over the full 256-processor system. The per-rank Transports
// cache each (dst, plane) route after the first lookup, so steady-state
// sends do no route computation and no per-message path allocation.
func BenchmarkSendSystem256(b *testing.B) {
	w := NewWorld(topo.System256())
	payload := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := i % w.Ranks()
		dst := (src + 61) % w.Ranks()
		if err := w.Send(src, dst, i, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := w.Recv(dst, src, i); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBarrierRepeatedRounds(t *testing.T) {
	w := NewWorld(topo.Cluster8())
	for round := 0; round < 3; round++ {
		if err := w.Barrier(round); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	// Time strictly increases across rounds.
	if w.MaxTime() <= 0 {
		t.Error("no time elapsed")
	}
}

// TestSendTracingOffAddsNoAllocs pins the nil-Recorder contract on the
// benchmark path: with no recorder attached, the trace instrumentation
// must cost nothing — the steady-state Send/Recv pair stays at the
// pre-trace allocation budget (9 allocs/op measured on
// BenchmarkSendSystem256 before internal/trace existed, plus one for
// the failed-attempt teardown hold: this workload's lagging rank
// clocks make some sends contend with the past, and a setup-timed-out
// attempt now claims its partial circuit until the ack-timeout
// teardown, appending one hold window).
func TestSendTracingOffAddsNoAllocs(t *testing.T) {
	w := NewWorld(topo.System256())
	if w.Network().Recorder() != nil {
		t.Fatal("fresh world has a recorder attached; tracing must default to off")
	}
	payload := make([]byte, 256)
	// Warm the topology's route table over the full (src, dst) cycle so
	// the measured runs see only the steady-state path.
	for i := 0; i < w.Ranks(); i++ {
		src := i % w.Ranks()
		dst := (src + 61) % w.Ranks()
		if err := w.Send(src, dst, i, payload); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Recv(dst, src, i); err != nil {
			t.Fatal(err)
		}
	}
	i := w.Ranks()
	allocs := testing.AllocsPerRun(200, func() {
		src := i % w.Ranks()
		dst := (src + 61) % w.Ranks()
		if err := w.Send(src, dst, i, payload); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Recv(dst, src, i); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 10 {
		t.Errorf("Send/Recv with tracing off = %.1f allocs/op, want <= 10 (pre-trace baseline + teardown hold)", allocs)
	}
}

// TestPerRankRecvWaitViews checks the per-rank receive-wait breakout:
// every Recv lands in both the machine-wide histogram and the receiving
// rank's own view, the per-rank counts sum to the machine-wide count,
// non-receiving ranks stay empty, and a nil registry keeps everything
// off.
func TestPerRankRecvWaitViews(t *testing.T) {
	w := NewWorld(topo.Cluster8())
	reg := metrics.NewRegistry()
	w.SetMetrics(reg)
	if err := w.Send(0, 1, 0, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Recv(1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Send(2, 3, 0, []byte{3}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Recv(3, 2, 0); err != nil {
		t.Fatal(err)
	}
	whole := reg.TimeHistogram(MetricRecvWait, recvWaitBuckets())
	if whole.Count() != 2 {
		t.Fatalf("machine-wide recv.wait count = %d, want 2", whole.Count())
	}
	var sum int64
	for r := 0; r < w.Ranks(); r++ {
		h := reg.TimeHistogram(recvWaitRankName(r), recvWaitBuckets())
		sum += h.Count()
		want := int64(0)
		if r == 1 || r == 3 {
			want = 1
		}
		if h.Count() != want {
			t.Errorf("rank %d recv.wait count = %d, want %d", r, h.Count(), want)
		}
	}
	if sum != whole.Count() {
		t.Errorf("per-rank counts sum to %d, machine-wide %d", sum, whole.Count())
	}
	if !strings.Contains(reg.Render(), "mpl.recv.wait.r001") {
		t.Error("dump missing the per-rank view name")
	}

	// Metrics off: a fresh world with no registry observes nothing and
	// allocates no per-rank views.
	w2 := NewWorld(topo.Cluster8())
	w2.SetMetrics(nil)
	if len(w2.met.rankWait) != 0 {
		t.Error("nil registry still allocated per-rank views")
	}
	if err := w2.Send(0, 1, 0, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Recv(1, 0, 0); err != nil {
		t.Fatal(err)
	}
}
