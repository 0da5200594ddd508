package mpl

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"powermanna/internal/metrics"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
)

// TestPWorldPingPong runs a two-rank exchange on Cluster8 and checks
// payload integrity, causality and clock advance.
func TestPWorldPingPong(t *testing.T) {
	w, err := NewPWorld(topo.Cluster8(), 1)
	if err != nil {
		t.Fatalf("NewPWorld: %v", err)
	}
	const rounds = 5
	err = w.Run(func(r *PRank) error {
		switch r.Rank() {
		case 0:
			for i := 0; i < rounds; i++ {
				if err := r.Send(1, i, []byte{byte(i), 0xAB}); err != nil {
					return err
				}
				b, err := r.Recv(1, 100+i)
				if err != nil {
					return err
				}
				if len(b) != 2 || b[0] != byte(i)+1 {
					return fmt.Errorf("round %d echo = %v", i, b)
				}
			}
		case 1:
			for i := 0; i < rounds; i++ {
				b, err := r.Recv(0, i)
				if err != nil {
					return err
				}
				if err := r.Send(0, 100+i, []byte{b[0] + 1, b[1]}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if w.MaxTime() <= 0 {
		t.Fatalf("makespan = %v", w.MaxTime())
	}
	msgs, bytes := w.Stats()
	if msgs != 2*rounds || bytes != 4*rounds {
		t.Fatalf("stats = %d msgs %d bytes", msgs, bytes)
	}
}

// TestPWorldDeadlockReported pins the abort path: a rank that receives
// a message nobody sends must surface as a deadlock error naming it,
// not hang or panic, and its stopped coroutine must not outlive Run.
func TestPWorldDeadlockReported(t *testing.T) {
	base := runtime.NumGoroutine()
	w, err := NewPWorld(topo.Cluster8(), 1)
	if err != nil {
		t.Fatalf("NewPWorld: %v", err)
	}
	err = w.Run(func(r *PRank) error {
		if r.Rank() == 3 {
			_, err := r.Recv(0, 999)
			return err
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "[3]") {
		t.Fatalf("deadlock error = %v", err)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the aborted Run, want the baseline %d", n, base)
	}
}

// TestPWorldCollectives checks the SPMD collectives' arithmetic on a
// full Cluster8 and on a crossbar-free single node: AllReduce of known
// vectors, Bcast fan-out, Gather assembly, Barrier completion.
func TestPWorldCollectives(t *testing.T) {
	for _, top := range []*topo.Topology{topo.Cluster8(), topo.New("single", 1)} {
		w, err := NewPWorld(top, 1)
		if err != nil {
			t.Fatalf("%s: NewPWorld: %v", top.Name(), err)
		}
		p := w.Ranks()
		wantSum := float64(p*(p+1)) / 2
		fields := make([][]float64, p)
		err = w.Run(func(r *PRank) error {
			rank := r.Rank()
			got, err := r.AllReduce([]float64{float64(rank + 1), 2}, 7)
			if err != nil {
				return err
			}
			if got[0] != wantSum || got[1] != float64(2*p) {
				return fmt.Errorf("allreduce = %v", got)
			}
			bc, err := r.Bcast([]float64{42, float64(rank)}, 9)
			if err != nil {
				return err
			}
			if bc[0] != 42 || bc[1] != 0 {
				return fmt.Errorf("bcast = %v", bc)
			}
			if err := r.Barrier(3); err != nil {
				return err
			}
			g, err := r.Gather([]float64{float64(rank * rank)}, 11)
			if err != nil {
				return err
			}
			if rank == 0 {
				for q := range g {
					fields[q] = g[q]
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: Run: %v", top.Name(), err)
		}
		for q := 0; q < p; q++ {
			if len(fields[q]) != 1 || fields[q][0] != float64(q*q) {
				t.Fatalf("%s: gather[%d] = %v", top.Name(), q, fields[q])
			}
		}
	}
}

// pworldTrial runs a deterministic mixed workload (point-to-point ring
// plus an AllReduce) on System256 and returns the makespan, traffic
// and rendered metrics.
func pworldTrial(t *testing.T, shards int, serial bool) (sim.Time, int64, int64, string) {
	t.Helper()
	w, err := NewPWorld(topo.System256(), shards)
	if err != nil {
		t.Fatalf("NewPWorld(%d): %v", shards, err)
	}
	w.PartNetwork().SetSerial(serial)
	reg := metrics.NewRegistry()
	w.SetMetrics(reg)
	err = w.Run(func(r *PRank) error {
		p, rank := r.Ranks(), r.Rank()
		next, prev := (rank+1)%p, (rank+p-1)%p
		for round := 0; round < 3; round++ {
			if err := r.Send(next, round, []byte{byte(rank), byte(round)}); err != nil {
				return err
			}
			b, err := r.Recv(prev, round)
			if err != nil {
				return err
			}
			if b[0] != byte(prev) || b[1] != byte(round) {
				return fmt.Errorf("ring round %d got %v", round, b)
			}
		}
		got, err := r.AllReduce([]float64{1}, 0)
		if err != nil {
			return err
		}
		if got[0] != float64(p) {
			return fmt.Errorf("allreduce = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("shards=%d serial=%v: %v", shards, serial, err)
	}
	msgs, bytes := w.Stats()
	return w.MaxTime(), msgs, bytes, reg.Render()
}

// TestPWorldDeterministicAcrossShards pins the tentpole invariant at
// the message-passing layer: the same SPMD program produces identical
// makespans, traffic and metrics at every aligned shard count, serial
// or parallel dispatch.
func TestPWorldDeterministicAcrossShards(t *testing.T) {
	refT, refM, refB, refMet := pworldTrial(t, 1, false)
	if refT <= 0 || refM == 0 {
		t.Fatalf("trivial reference: makespan %v, %d msgs", refT, refM)
	}
	for _, shards := range []int{1, 2, 4, 8, 16} {
		for _, serial := range []bool{false, true} {
			if shards == 1 && !serial {
				continue
			}
			gt, gm, gb, gmet := pworldTrial(t, shards, serial)
			if gt != refT || gm != refM || gb != refB {
				t.Errorf("shards=%d serial=%v: makespan %v msgs %d bytes %d, want %v %d %d",
					shards, serial, gt, gm, gb, refT, refM, refB)
			}
			if gmet != refMet {
				t.Errorf("shards=%d serial=%v: metrics diverged", shards, serial)
			}
		}
	}
}

// BenchmarkAllreduceSystem256 sweeps repeated 128-rank AllReduce rounds
// across shard counts: engine=seq is the serial-dispatch baseline,
// engine=par walks the shard heaps concurrently. The butterfly's
// cross-group edges are exactly the traffic the partition mailboxes
// exist for, so this is the communication-bound end of the sweep.
func BenchmarkAllreduceSystem256(b *testing.B) {
	top := topo.System256()
	const rounds = 10
	run := func(b *testing.B, shards int, serial bool) {
		for i := 0; i < b.N; i++ {
			w, err := NewPWorld(top, shards)
			if err != nil {
				b.Fatal(err)
			}
			w.PartNetwork().SetSerial(serial)
			p := w.Ranks()
			wantA := float64(p) * float64(p+1) / 2
			err = w.Run(func(r *PRank) error {
				for round := 0; round < rounds; round++ {
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
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("engine=seq/shards=1", func(b *testing.B) { run(b, 1, true) })
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		b.Run(fmt.Sprintf("engine=par/shards=%d", shards), func(b *testing.B) { run(b, shards, false) })
	}
}

// allreduceRun is one AllReduce loop on System256: the per-rank,
// per-round sums, makespan, message count and engine round count.
type allreduceRun struct {
	sums     []float64
	makespan sim.Time
	msgs     int64
	rounds   uint64
}

func allreduceTrial(t *testing.T, shards int, serial bool) allreduceRun {
	t.Helper()
	w, err := NewPWorld(topo.System256(), shards)
	if err != nil {
		t.Fatalf("NewPWorld(%d): %v", shards, err)
	}
	w.PartNetwork().SetSerial(serial)
	const rounds = 6
	sums := make([]float64, w.Ranks()*rounds)
	err = w.Run(func(r *PRank) error {
		for round := 0; round < rounds; round++ {
			got, err := r.AllReduce([]float64{float64((r.Rank() + 1) * (round + 1))}, round)
			if err != nil {
				return err
			}
			sums[r.Rank()*rounds+round] = got[0]
		}
		return nil
	})
	if err != nil {
		t.Fatalf("shards=%d serial=%v: %v", shards, serial, err)
	}
	msgs, _ := w.Stats()
	return allreduceRun{sums, w.MaxTime(), msgs, w.PartNetwork().Engine().Rounds()}
}

// TestPWorldCrossWorkerResume runs the AllReduce loop under parallel
// dispatch at GOMAXPROCS 1 and 2, where a rank coroutine is resumed by
// whichever goroutine drives its shard — the engine's caller for shard
// 0, a worker goroutine for the others. Every run must equal the
// 1-shard serial run: sums, makespan, messages and engine rounds.
func TestPWorldCrossWorkerResume(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ref := allreduceTrial(t, 1, true)
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{1, 2, 4} {
			got := allreduceTrial(t, shards, false)
			if !slices.Equal(got.sums, ref.sums) {
				t.Errorf("GOMAXPROCS %d shards=%d: sums diverged from the 1-shard serial run", procs, shards)
			}
			if got.makespan != ref.makespan || got.msgs != ref.msgs || got.rounds != ref.rounds {
				t.Errorf("GOMAXPROCS %d shards=%d: makespan %v msgs %d rounds %d, want %v %d %d",
					procs, shards, got.makespan, got.msgs, got.rounds, ref.makespan, ref.msgs, ref.rounds)
			}
		}
	}
}

// TestPWorldRankPanicSurfaces pins the coroutine lifecycle: a normal
// Run leaves no goroutine behind, and a rank panic reaches Run's caller
// with its value while every parked rank is stopped, so a panicking
// Run leaves none behind either.
func TestPWorldRankPanicSurfaces(t *testing.T) {
	base := runtime.NumGoroutine()
	newWorld := func() *PWorld {
		w, err := NewPWorld(topo.System256(), 1)
		if err != nil {
			t.Fatalf("NewPWorld: %v", err)
		}
		w.PartNetwork().SetSerial(true)
		return w
	}
	if err := newWorld().Run(func(r *PRank) error { return r.Barrier(0) }); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Run, want the baseline %d", n, base)
	}

	w := newWorld()
	func() {
		defer func() {
			if p := recover(); p != "rank 5 failed" {
				t.Errorf("recovered %v, want the rank 5 panic", p)
			}
		}()
		_ = w.Run(func(r *PRank) error {
			switch r.Rank() {
			case 4:
				return r.Send(5, 0, []byte{1})
			case 5:
				if _, err := r.Recv(4, 0); err != nil {
					return err
				}
				panic("rank 5 failed")
			}
			// Every other rank is parked on a receive when rank 5 panics.
			_, err := r.Recv(4, 1)
			return err
		})
		t.Errorf("Run returned after a rank panic")
	}()
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after a panicking Run, want the baseline %d", n, base)
	}
}

// BenchmarkPWorldPingPong times one 8-byte send/recv round trip between
// System256 nodes 0 and 127 under parallel dispatch: the rank
// coroutine switches and the split-phase send path, as in the
// benchmark ledger's mpl.sendrecv row (2 shards). Only the steady
// state is timed: the timer restarts after warm round trips, once every
// rank coroutine has started and both ranks' message records are
// recycling, and stops when the last reply is in, so even a
// one-iteration run reads the steady state.
func BenchmarkPWorldPingPong(b *testing.B) {
	const src, dst, warm = 0, 127, 16
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			w, err := NewPWorld(topo.System256(), shards)
			if err != nil {
				b.Fatal(err)
			}
			msg := make([]byte, 8)
			n := b.N
			b.ReportAllocs()
			err = w.Run(func(r *PRank) error {
				switch r.Rank() {
				case src:
					for i := -warm; i < n; i++ {
						if i == 0 {
							b.ResetTimer()
						}
						if err := r.Send(dst, i, msg); err != nil {
							return err
						}
						if _, err := r.Recv(dst, i); err != nil {
							return err
						}
					}
					// The records of the last round trip return to the
					// free lists after this; that is teardown, not the
					// steady state.
					b.StopTimer()
				case dst:
					for i := -warm; i < n; i++ {
						if _, err := r.Recv(src, i); err != nil {
							return err
						}
						if err := r.Send(src, i, msg); err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// runPWorld runs fn on a fresh 1-shard world over top and fails the
// test on any error.
func runPWorld(t *testing.T, top *topo.Topology, fn func(r *PRank) error) *PWorld {
	t.Helper()
	w, err := NewPWorld(top, 1)
	if err != nil {
		t.Fatalf("NewPWorld: %v", err)
	}
	if err := w.Run(fn); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return w
}

func TestSendRecvRoundTrip(t *testing.T) {
	msg := []byte("hello from node 0")
	clocks := make([]sim.Time, 8)
	w := runPWorld(t, topo.Cluster8(), func(r *PRank) error {
		switch r.Rank() {
		case 0:
			if err := r.Send(3, 7, msg); err != nil {
				return err
			}
		case 3:
			got, err := r.Recv(0, 7)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, msg) {
				return fmt.Errorf("payload = %q", got)
			}
		}
		clocks[r.Rank()] = r.Now()
		return nil
	})
	if clocks[3] <= clocks[1] {
		t.Error("receiver clock did not advance")
	}
	if msgs, payload := w.Stats(); msgs != 1 || payload != int64(len(msg)) {
		t.Errorf("stats = %d msgs %d bytes", msgs, payload)
	}
}

// TestRanksOutgrowTheirSlabs grows one rank's free list past its slab
// share while the next rank's queue still holds messages in its own
// share: rank 0 receives more messages than slabFree from rank 7, then
// releases rank 1, whose queue has meanwhile held slabQueue-1 messages
// from rank 2 in its slab share. Payloads run past slabPayload, so the
// records' payload buffers grow too. Every payload must arrive intact.
func TestRanksOutgrowTheirSlabs(t *testing.T) {
	const m = 2 * (slabFree + slabRecords)
	const tagGo = 1000
	body := func(src, k int) []byte {
		b := make([]byte, k%(2*slabPayload)+1)
		for i := range b {
			b[i] = byte(src*31 + k + i)
		}
		return b
	}
	recv := func(r *PRank, src, k int) error {
		got, err := r.Recv(src, k)
		if err != nil {
			return err
		}
		if want := body(src, k); k != tagGo && !bytes.Equal(got, want) {
			return fmt.Errorf("rank %d: message %d from %d = %v, want %v", r.Rank(), k, src, got, want)
		}
		return nil
	}
	runPWorld(t, topo.Cluster8(), func(r *PRank) error {
		switch r.Rank() {
		case 7, 2:
			n, dst := m, 0
			if r.Rank() == 2 {
				n, dst = slabQueue-1, 1
			}
			for k := 0; k < n; k++ {
				if err := r.Send(dst, k, body(r.Rank(), k)); err != nil {
					return err
				}
			}
		case 0:
			for k := m - 1; k >= 0; k-- {
				if err := recv(r, 7, k); err != nil {
					return err
				}
			}
			return r.Send(1, tagGo, nil)
		case 1:
			if err := recv(r, 0, tagGo); err != nil {
				return err
			}
			for k := 0; k < slabQueue-1; k++ {
				if err := recv(r, 2, k); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

func TestSelfSendRejected(t *testing.T) {
	w, err := NewPWorld(topo.Cluster8(), 1)
	if err != nil {
		t.Fatalf("NewPWorld: %v", err)
	}
	err = w.Run(func(r *PRank) error {
		if r.Rank() == 2 {
			return r.Send(2, 0, nil)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "self-send") {
		t.Errorf("self-send error = %v", err)
	}
}

// TestTagMatching receives two messages from one sender in the reverse
// of their send order: matching is by (src, tag), not arrival.
func TestTagMatching(t *testing.T) {
	runPWorld(t, topo.Cluster8(), func(r *PRank) error {
		switch r.Rank() {
		case 0:
			if err := r.Send(1, 10, []byte("ten")); err != nil {
				return err
			}
			return r.Send(1, 20, []byte("twenty"))
		case 1:
			for _, want := range []struct {
				tag  int
				body string
			}{{20, "twenty"}, {10, "ten"}} {
				got, err := r.Recv(0, want.tag)
				if err != nil {
					return err
				}
				if string(got) != want.body {
					return fmt.Errorf("tag %d recv = %q", want.tag, got)
				}
			}
		}
		return nil
	})
}

func TestCausality(t *testing.T) {
	// A receive can never complete before the send started.
	var sendStart, recvDone sim.Time
	runPWorld(t, topo.Cluster8(), func(r *PRank) error {
		switch r.Rank() {
		case 0:
			r.Compute(100 * sim.Microsecond)
			sendStart = r.Now()
			return r.Send(5, 0, make([]byte, 1024))
		case 5:
			if _, err := r.Recv(0, 0); err != nil {
				return err
			}
			recvDone = r.Now()
		}
		return nil
	})
	if recvDone <= sendStart {
		t.Errorf("receiver finished at %v before send started at %v", recvDone, sendStart)
	}
}

func TestLargeSendOccupiesSender(t *testing.T) {
	held := make([]sim.Time, 8)
	runPWorld(t, topo.Cluster8(), func(r *PRank) error {
		var size int
		switch r.Rank() {
		case 0:
			size = 64 << 10
		case 2:
			size = 64
		default:
			return nil
		}
		err := r.Send(r.Rank()+1, 0, make([]byte, size))
		held[r.Rank()] = r.Now()
		return err
	})
	// A 64 KB eager send holds the sender roughly for the link time
	// (~1.09 ms); a 64 B send returns in microseconds.
	if held[0] < 500*sim.Microsecond {
		t.Errorf("64 KB send released sender at %v, want ~1ms", held[0])
	}
	if held[2] > 10*sim.Microsecond {
		t.Errorf("64 B send held sender until %v", held[2])
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const skew = 10 * sim.Microsecond
	left := make([]sim.Time, 8)
	runPWorld(t, topo.Cluster8(), func(r *PRank) error {
		r.Compute(sim.Time(r.Rank()) * skew)
		if err := r.Barrier(0); err != nil {
			return err
		}
		left[r.Rank()] = r.Now()
		return nil
	})
	// Every rank's clock is now past the last entrant's entry time.
	latest := sim.Time(len(left)-1) * skew
	for rank, at := range left {
		if at < latest {
			t.Errorf("rank %d left barrier at %v before last entry %v", rank, at, latest)
		}
	}
}

func TestBarrierRepeatedRounds(t *testing.T) {
	w := runPWorld(t, topo.Cluster8(), func(r *PRank) error {
		for round := 0; round < 3; round++ {
			if err := r.Barrier(round); err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
		}
		return nil
	})
	if w.MaxTime() <= 0 {
		t.Error("no time elapsed")
	}
}

func TestBcastDeliversToAll(t *testing.T) {
	vec := []float64{1.5, -2.25, 3.125}
	runPWorld(t, topo.Cluster8(), func(r *PRank) error {
		var in []float64
		if r.Rank() == 0 {
			in = vec
		}
		got, err := r.Bcast(in, 1)
		if err != nil {
			return err
		}
		if !slices.Equal(got, vec) {
			return fmt.Errorf("rank %d got %v", r.Rank(), got)
		}
		return nil
	})
}

func TestAllReduceSums(t *testing.T) {
	const p = 8
	want := make([]float64, 4)
	for rank := 0; rank < p; rank++ {
		for i, v := range []float64{float64(rank), 1, float64(rank * rank), 0.5} {
			want[i] += v
		}
	}
	runPWorld(t, topo.Cluster8(), func(r *PRank) error {
		rank := r.Rank()
		got, err := r.AllReduce([]float64{float64(rank), 1, float64(rank * rank), 0.5}, 2)
		if err != nil {
			return err
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				return fmt.Errorf("rank %d element %d = %g, want %g", rank, i, got[i], want[i])
			}
		}
		return nil
	})
}

func TestGatherCollects(t *testing.T) {
	var out [][]float64
	runPWorld(t, topo.Cluster8(), func(r *PRank) error {
		g, err := r.Gather([]float64{float64(r.Rank() * 10)}, 3)
		if r.Rank() == 0 {
			out = g
		}
		return err
	})
	for rank := 0; rank < 8; rank++ {
		if out[rank][0] != float64(rank*10) {
			t.Errorf("rank %d gathered %g", rank, out[rank][0])
		}
	}
}

func TestAllReduceOnSystem256(t *testing.T) {
	w := runPWorld(t, topo.System256(), func(r *PRank) error {
		got, err := r.AllReduce([]float64{1}, 5)
		if err != nil {
			return err
		}
		if got[0] != float64(r.Ranks()) {
			return fmt.Errorf("sum of ones = %g, want %d", got[0], r.Ranks())
		}
		return nil
	})
	// Critical path: O(log P) small-message latencies, so a 128-rank
	// allreduce of one element finishes within tens of microseconds
	// (7 levels up + 7 down at < 4 µs per hop plus overheads).
	if w.MaxTime() > 200*sim.Microsecond {
		t.Errorf("128-rank allreduce took %v, expected tens of us", w.MaxTime())
	}
	if CriticalDepth(w.Ranks()) != 7 {
		t.Errorf("depth = %d, want 7", CriticalDepth(w.Ranks()))
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() sim.Time {
		return runPWorld(t, topo.System256(), func(r *PRank) error {
			_, err := r.AllReduce([]float64{float64(r.Rank())}, 1)
			return err
		}).MaxTime()
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Errorf("non-deterministic: %v vs %v", a, b)
	}
}

// TestCollectiveErrorPaths feeds AllReduce a ragged contribution: the
// parent that combines it reports the length mismatch, and Run surfaces
// that error rather than the deadlock of the ranks left waiting.
func TestCollectiveErrorPaths(t *testing.T) {
	w, err := NewPWorld(topo.Cluster8(), 1)
	if err != nil {
		t.Fatalf("NewPWorld: %v", err)
	}
	err = w.Run(func(r *PRank) error {
		vec := []float64{1}
		if r.Rank() == 3 {
			vec = []float64{1, 2}
		}
		_, err := r.AllReduce(vec, 0)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "rank 2 reduce level 0 got 2 elements") {
		t.Errorf("ragged allreduce error = %v", err)
	}
}

// TestPartialVectorRejected posts 12 bytes, one and a half float64s,
// where a vector is expected: on the broadcast tag to a Bcast receiver
// and on the gather tag to the Gather root. Both report the payload
// instead of silently dropping its trailing partial element.
func TestPartialVectorRejected(t *testing.T) {
	const tag = 5
	cases := []struct {
		name string
		fn   func(r *PRank) error
		want string
	}{
		{"bcast", func(r *PRank) error {
			switch r.Rank() {
			case 0:
				return r.Send(1, tagBcast+tag, make([]byte, 12))
			case 1:
				_, err := r.Bcast(nil, tag)
				return err
			}
			return nil
		}, "rank 1 got 12 bytes from rank 0 on tag 2097157, not a whole vector"},
		{"gather", func(r *PRank) error {
			if r.Rank() == 1 {
				return r.Send(0, tagGather+tag+1, make([]byte, 12))
			}
			_, err := r.Gather([]float64{1}, tag)
			return err
		}, "rank 0 got 12 bytes from rank 1 on tag 8388614, not a whole vector"},
	}
	for _, c := range cases {
		w, err := NewPWorld(topo.Cluster8(), 1)
		if err != nil {
			t.Fatalf("NewPWorld: %v", err)
		}
		if err := w.Run(c.fn); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: 12-byte vector error = %v, want %q", c.name, err, c.want)
		}
	}
}

// TestSendTracingOffAddsNoAllocs pins the nil-Recorder contract on the
// send path: with no recorder attached, a steady-state 256-byte
// send/recv round trip between System256 nodes 0 and 61 allocates
// nothing, because each rank recycles the message records it receives
// for its next sends.
func TestSendTracingOffAddsNoAllocs(t *testing.T) {
	const src, dst, warm, runs = 0, 61, 16, 200
	w, err := NewPWorld(topo.System256(), 1)
	if err != nil {
		t.Fatalf("NewPWorld: %v", err)
	}
	payload := make([]byte, 256)
	var allocs float64
	err = w.Run(func(r *PRank) error {
		switch r.Rank() {
		case src:
			ping := func() error {
				if err := r.Send(dst, 0, payload); err != nil {
					return err
				}
				_, err := r.Recv(dst, 0)
				return err
			}
			for i := 0; i < warm; i++ {
				if err := ping(); err != nil {
					return err
				}
			}
			var err error
			allocs = testing.AllocsPerRun(runs, func() {
				if e := ping(); e != nil {
					err = e
				}
			})
			return err
		case dst:
			// AllocsPerRun calls its function once more as a warm-up.
			for i := 0; i < warm+runs+1; i++ {
				if _, err := r.Recv(src, 0); err != nil {
					return err
				}
				if err := r.Send(src, 0, payload); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if allocs != 0 {
		t.Errorf("send/recv round trip with tracing off = %.1f allocs, want 0", allocs)
	}
}

// TestRecvPayloadValidUntilNextRecv pins Recv's contract over recycled
// records: a payload returned by Recv stays intact across the rank's
// own Sends, which reuse the records of its earlier receives, and a
// forwarded payload arrives intact even after the forwarder's next
// Recv has recycled the record it came in.
func TestRecvPayloadValidUntilNextRecv(t *testing.T) {
	const warm = 4
	fill := func(c byte) []byte { return bytes.Repeat([]byte{c}, 100) }
	want := fill('k')
	runPWorld(t, topo.Cluster8(), func(r *PRank) error {
		switch r.Rank() {
		case 0:
			// Rank 1's warm-up receives stock its free list.
			for i := 0; i < warm; i++ {
				if err := r.Send(1, i, fill('a'+byte(i))); err != nil {
					return err
				}
			}
			if err := r.Send(1, warm, want); err != nil {
				return err
			}
			for i := 0; i < warm; i++ {
				if _, err := r.Recv(1, i); err != nil {
					return err
				}
			}
			return r.Send(1, warm+1, fill('z'))
		case 1:
			for i := 0; i < warm; i++ {
				if _, err := r.Recv(0, i); err != nil {
					return err
				}
			}
			b, err := r.Recv(0, warm)
			if err != nil {
				return err
			}
			for i := 0; i < warm; i++ {
				if err := r.Send(0, i, fill('x')); err != nil {
					return err
				}
			}
			if !bytes.Equal(b, want) {
				return fmt.Errorf("payload changed by the rank's own sends: %q", b)
			}
			if err := r.Send(2, 0, b); err != nil {
				return err
			}
			// Recycle b's record, then overwrite it with the next send.
			if _, err := r.Recv(0, warm+1); err != nil {
				return err
			}
			return r.Send(2, 1, fill('y'))
		case 2:
			b, err := r.Recv(1, 0)
			if err != nil {
				return err
			}
			if !bytes.Equal(b, want) {
				return fmt.Errorf("forwarded payload = %q, want %q", b, want)
			}
			_, err = r.Recv(1, 1)
			return err
		}
		return nil
	})
}

// TestPerRankRecvWaitViews checks the per-rank receive-wait breakout:
// every Recv lands in both the machine-wide histogram and the receiving
// rank's own view, the per-rank counts sum to the machine-wide count,
// non-receiving ranks stay empty, and with no registry attached the
// ranks hold no views.
func TestPerRankRecvWaitViews(t *testing.T) {
	pairs := func(r *PRank) error {
		switch r.Rank() {
		case 0, 2:
			return r.Send(r.Rank()+1, 0, []byte{byte(r.Rank())})
		case 1, 3:
			_, err := r.Recv(r.Rank()-1, 0)
			return err
		}
		return nil
	}
	w, err := NewPWorld(topo.Cluster8(), 1)
	if err != nil {
		t.Fatalf("NewPWorld: %v", err)
	}
	reg := metrics.NewRegistry()
	w.SetMetrics(reg)
	if err := w.Run(pairs); err != nil {
		t.Fatalf("Run: %v", err)
	}
	whole := reg.TimeHistogram(MetricRecvWait, recvWaitBuckets())
	if whole.Count() != 2 {
		t.Fatalf("machine-wide recv.wait count = %d, want 2", whole.Count())
	}
	var sum int64
	for rank := 0; rank < w.Ranks(); rank++ {
		h := reg.TimeHistogram(recvWaitRankName(rank), recvWaitBuckets())
		sum += h.Count()
		want := int64(0)
		if rank == 1 || rank == 3 {
			want = 1
		}
		if h.Count() != want {
			t.Errorf("rank %d recv.wait count = %d, want %d", rank, h.Count(), want)
		}
	}
	if sum != whole.Count() {
		t.Errorf("per-rank counts sum to %d, machine-wide %d", sum, whole.Count())
	}
	if !strings.Contains(reg.Render(), "mpl.recv.wait.r001") {
		t.Error("dump missing the per-rank view name")
	}

	// Metrics off: a world with no registry attached holds no views and
	// still runs.
	w2, err := NewPWorld(topo.Cluster8(), 1)
	if err != nil {
		t.Fatalf("NewPWorld: %v", err)
	}
	w2.SetMetrics(nil)
	for _, r := range w2.ranks {
		if r.recvWait != nil || r.rankWait != nil {
			t.Fatalf("nil registry still gave rank %d a view", r.rank)
		}
	}
	if err := w2.Run(pairs); err != nil {
		t.Fatalf("Run: %v", err)
	}
}
