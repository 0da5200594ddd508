package mpl

import (
	"fmt"
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
// full Cluster8: AllReduce of known vectors, Bcast fan-out, Gather
// assembly, Barrier completion.
func TestPWorldCollectives(t *testing.T) {
	w, err := NewPWorld(topo.Cluster8(), 1)
	if err != nil {
		t.Fatalf("NewPWorld: %v", err)
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
		t.Fatalf("Run: %v", err)
	}
	for q := 0; q < p; q++ {
		if len(fields[q]) != 1 || fields[q][0] != float64(q*q) {
			t.Fatalf("gather[%d] = %v", q, fields[q])
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
// whichever goroutine runs its shard's round — the engine's caller in
// solo rounds, a crew worker otherwise. Every run must equal the
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
// benchmark ledger's mpl.sendrecv row (2 shards).
func BenchmarkPWorldPingPong(b *testing.B) {
	const src, dst = 0, 127
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			w, err := NewPWorld(topo.System256(), shards)
			if err != nil {
				b.Fatal(err)
			}
			msg := make([]byte, 8)
			n := b.N
			b.ResetTimer()
			err = w.Run(func(r *PRank) error {
				switch r.Rank() {
				case src:
					for i := 0; i < n; i++ {
						if err := r.Send(dst, i, msg); err != nil {
							return err
						}
						if _, err := r.Recv(dst, i); err != nil {
							return err
						}
					}
				case dst:
					for i := 0; i < n; i++ {
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
