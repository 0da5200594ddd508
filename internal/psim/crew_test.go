// Barrier contract tests: a parallel Run's workers never outlive it,
// never allocate per round, and never change the history — whether the
// host gives them one processor or two.
package psim_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"powermanna/internal/metrics"
	"powermanna/internal/netsim"
	"powermanna/internal/psim"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
)

// settleGoroutines waits briefly for exiting goroutines to finish and
// reports the goroutine count once it is at most want.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// stableGoroutines waits until the goroutine count has held still for
// ten consecutive millisecond polls (about a second at most) and
// returns it. A joined worker has called Done but may not have
// exited yet, so a baseline read at once can count a goroutine an
// earlier test is still tearing down.
func stableGoroutines() int {
	n := runtime.NumGoroutine()
	for still, i := 0, 0; still < 10 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
}

// TestParallelRunLeavesNoWorkers pins the workers' lifetime: every
// worker a parallel Run starts is joined before Run returns, also when
// an event panics mid-round — on the caller's shard 0 or on a worker's
// shard — and the panic, which must reach Run's caller with its own
// value, is recovered outside Run.
func TestParallelRunLeavesNoWorkers(t *testing.T) {
	base := stableGoroutines()
	eng := tickEngine(4, 4, 500)
	eng.Run()
	if eng.Rounds() != 500 || eng.SoloRounds() != 0 {
		t.Fatalf("tick model ran %d rounds (%d solo), want 500 (0 solo)", eng.Rounds(), eng.SoloRounds())
	}
	if n := settleGoroutines(base); n != base {
		t.Fatalf("%d goroutines after Run, want the baseline %d", n, base)
	}

	for _, bad := range []int{0, 1, 3} {
		want := fmt.Sprintf("shard %d event failed", bad)
		eng = tickEngine(4, 4, 500)
		eng.Shard(bad).At(100*psim.DefaultLookahead(), func() { panic(want) })
		func() {
			defer func() {
				if r := recover(); r != want {
					t.Errorf("recovered %v, want %q", r, want)
				}
			}()
			eng.Run()
		}()
		if eng.Rounds() != 101 || eng.SoloRounds() != 0 {
			t.Errorf("shard %d panic: %d rounds (%d solo), want 101 (0 solo)", bad, eng.Rounds(), eng.SoloRounds())
		}
		if n := settleGoroutines(base); n != base {
			t.Fatalf("%d goroutines after a Run panicking on shard %d, want the baseline %d", n, bad, base)
		}
	}
}

// TestParallelRoundCounts pins what a round counts as active: a shard
// with an event in the window, queued or still in its inbox. Each row
// runs serial and parallel and must give the same counts.
func TestParallelRoundCounts(t *testing.T) {
	la := psim.DefaultLookahead()
	for _, tc := range []struct {
		name         string
		build        func() *psim.Engine
		rounds, solo uint64
	}{
		// Shard 1 is idle throughout, yet meets shard 0 at every barrier.
		{"one-ticking", func() *psim.Engine { return tickEngine(2, 1, 50) }, 50, 50},
		// Shard 0 posts to shard 1 at the window end and ticks there
		// itself. Shard 1's queue stays empty until it merges the post,
		// but the second round is shared: only the first is solo.
		{"inbox-only-shard-active", func() *psim.Engine {
			eng := psim.NewEngine(2, la)
			sh := eng.Shard(0)
			sh.At(0, func() {
				eng.PostPayload(0, 1, la, psim.RunFunc, func() {})
				sh.At(la, func() {})
			})
			return eng
		}, 2, 1},
	} {
		for _, serial := range []bool{true, false} {
			eng := tc.build()
			eng.SetSerial(serial)
			eng.Run()
			if eng.Rounds() != tc.rounds || eng.SoloRounds() != tc.solo {
				t.Errorf("%s serial=%v: %d rounds, %d solo; want %d, %d", tc.name, serial, eng.Rounds(), eng.SoloRounds(), tc.rounds, tc.solo)
			}
		}
	}
}

// burstLog runs a contended, faulted System256 send burst on the
// partitioned datapath — every node sends at 0 and at 2 µs, so many
// shards are active in the same rounds — and renders every delivery
// and the metrics dump, plus the engine's round counters.
func burstLog(t *testing.T, shards int, serial bool) (history, rounds string) {
	t.Helper()
	top := topo.System256()
	pn, err := netsim.NewPartitioned(top, shards, netsim.DefaultFailover())
	if err != nil {
		t.Fatalf("NewPartitioned(%d): %v", shards, err)
	}
	pn.SetSerial(serial)
	reg := metrics.NewRegistry()
	pn.SetMetrics(reg)
	pn.Network().CutWire(9, topo.NetworkA, 500*sim.Nanosecond)
	pn.Network().CorruptWire(40, topo.NetworkA, 0, 10*sim.Microsecond)
	nodes := top.Nodes()
	got := make([]netsim.Delivery, 2*nodes)
	for n := 0; n < nodes; n++ {
		n := n
		dst1, dst2 := (n*37+13)%nodes, (n+9)%nodes
		if dst1 == n {
			dst1 = (dst1 + 1) % nodes
		}
		sh := pn.Shard(pn.ShardOf(n))
		for k, send := range []struct {
			at    sim.Time
			dst   int
			bytes int
		}{{0, dst1, 512}, {2 * sim.Microsecond, dst2, 128}} {
			k, send := k, send
			sh.At(send.at, func() {
				if err := pn.SendAsync(n, send.dst, send.bytes, nil, send.at, func(d netsim.Delivery) { got[k*nodes+n] = d }); err != nil {
					t.Errorf("SendAsync: %v", err)
				}
			})
		}
	}
	pn.Run()
	eng := pn.Engine()
	return fmt.Sprintf("%+v\n%s", got, reg.Render()), fmt.Sprintf("rounds=%d solo=%d", eng.Rounds(), eng.SoloRounds())
}

// TestParallelMatchesSerialGOMAXPROCS1 runs the token ring and the
// send burst in parallel and serial dispatch at GOMAXPROCS 1 (every
// shard on the caller) and 2 (one goroutine per shard), and requires one
// history throughout and one round count per shard count.
func TestParallelMatchesSerialGOMAXPROCS1(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const nodes, laps = 6, 5
	hop := psim.DefaultLookahead()
	ringWant := fmt.Sprint(psim.RingLog(psim.NewEngine(1, 0), nodes, laps, hop))
	burstWant, _ := burstLog(t, 1, true)
	roundsWant := map[int]string{}
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, serial := range []bool{false, true} {
			for _, shards := range []int{2, 3, 6} {
				eng := psim.NewEngine(shards, hop)
				eng.SetSerial(serial)
				if got := fmt.Sprint(psim.RingLog(eng, nodes, laps, hop)); got != ringWant {
					t.Errorf("GOMAXPROCS %d serial=%v ring on %d shards: %s, want %s", procs, serial, shards, got, ringWant)
				}
			}
			for _, shards := range []int{2, 4} {
				got, rounds := burstLog(t, shards, serial)
				if got != burstWant {
					t.Errorf("GOMAXPROCS %d serial=%v burst on %d shards diverged from the 1-shard serial run", procs, serial, shards)
				}
				if want, ok := roundsWant[shards]; !ok {
					roundsWant[shards] = rounds
				} else if rounds != want {
					t.Errorf("GOMAXPROCS %d serial=%v burst on %d shards: %s, want %s", procs, serial, shards, rounds, want)
				}
			}
		}
	}
}

// TestParallelRoundsAllocateNothing pins the barrier to zero heap
// allocations per round: a parallel Run of 10 rounds and one of 10,000
// rounds, both shards active in every round, allocate the same.
func TestParallelRoundsAllocateNothing(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("parallel dispatch needs GOMAXPROCS >= 2")
	}
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(20, func() {
			eng := tickEngine(2, 2, rounds)
			eng.Run()
			if eng.Rounds() != uint64(rounds) || eng.SoloRounds() != 0 {
				t.Fatalf("tick model ran %d rounds (%d solo), want %d (0 solo)", eng.Rounds(), eng.SoloRounds(), rounds)
			}
		})
	}
	short, long := allocs(10), allocs(10_000)
	if short != long {
		t.Errorf("a 10-round parallel Run allocates %v, a 10,000-round one %v: rounds allocate", short, long)
	}
}

// rowProgram schedules row i's events on e: a chain of 50 events whose
// times and running hash depend on i, written to the row's own slot.
func rowProgram(i int, e sim.Engine, out []uint64) {
	h := uint64(i + 1)
	var step func()
	n := 0
	step = func() {
		h = h*6364136223846793005 + uint64(e.Now())
		out[i] = h
		if n++; n < 50 {
			e.After(sim.Time(1+(h>>60)+uint64(i)), step)
		}
	}
	e.At(sim.Time(i), step)
}

// TestRunRows pins the independent-rows runner: under Seq every row is
// set up only after the previous one drained, on a fresh scheduler, and
// no goroutine is started; under Par every row runs on its own shard of
// one engine, and the per-row results equal the sequential ones.
func TestRunRows(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n = 5
	var log []string
	base := stableGoroutines()
	psim.RunRows(psim.Seq, n, func(i int, e sim.Engine) {
		if _, ok := e.(*sim.Scheduler); !ok {
			t.Errorf("seq row %d runs on %T, want *sim.Scheduler", i, e)
		}
		log = append(log, fmt.Sprintf("setup %d", i))
		e.At(0, func() {
			log = append(log, fmt.Sprintf("run %d goroutines=%d", i, runtime.NumGoroutine()-base))
		})
	})
	want := "[setup 0 run 0 goroutines=0 setup 1 run 1 goroutines=0 setup 2 run 2 goroutines=0 setup 3 run 3 goroutines=0 setup 4 run 4 goroutines=0]"
	if got := fmt.Sprint(log); got != want {
		t.Errorf("seq rows ran %s, want %s", got, want)
	}

	seq, par := make([]uint64, n), make([]uint64, n)
	psim.RunRows(psim.Seq, n, func(i int, e sim.Engine) { rowProgram(i, e, seq) })
	shards := map[*psim.Shard]bool{}
	psim.RunRows(psim.Par, n, func(i int, e sim.Engine) {
		if sh, ok := e.(*psim.Shard); !ok {
			t.Errorf("par row %d runs on %T, want *psim.Shard", i, e)
		} else {
			shards[sh] = true
		}
		rowProgram(i, e, par)
	})
	if len(shards) != n {
		t.Errorf("par rows ran on %d distinct shards, want %d", len(shards), n)
	}
	if fmt.Sprint(par) != fmt.Sprint(seq) {
		t.Errorf("par rows %v, seq rows %v", par, seq)
	}
	for i, h := range seq {
		if h == 0 {
			t.Errorf("row %d never ran", i)
		}
	}
	psim.RunRows(psim.Par, 0, func(int, sim.Engine) { t.Error("setup called for zero rows") })
}

// TestRunRowsPanicReachesCaller requires a panicking row to unwind to
// RunRows' caller under either engine — under Par also from a row on a
// worker goroutine — with its own panic value, and to leave no worker
// running.
func TestRunRowsPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	base := stableGoroutines()
	for _, k := range []psim.Kind{psim.Seq, psim.Par} {
		for _, bad := range []int{0, 2, 3} {
			want := fmt.Sprintf("row %d failed", bad)
			var ran [4]bool
			func() {
				defer func() {
					if r := recover(); r != want {
						t.Errorf("%v row %d: recovered %v, want %q", k, bad, r, want)
					}
				}()
				psim.RunRows(k, len(ran), func(i int, e sim.Engine) {
					e.At(sim.Time(i), func() {
						ran[i] = true
						if i == bad {
							panic(fmt.Sprintf("row %d failed", i))
						}
					})
				})
				t.Errorf("%v row %d: RunRows returned normally", k, bad)
			}()
			if !ran[bad] {
				t.Errorf("%v: row %d never ran", k, bad)
			}
			if n := settleGoroutines(base); n != base {
				t.Fatalf("%v row %d: %d goroutines after a panicking RunRows, want the baseline %d", k, bad, n, base)
			}
		}
	}
}
