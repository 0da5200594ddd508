// Crew lifecycle tests: a parallel Run's persistent workers never
// outlive it, never allocate per round, and never change the history —
// whether the host gives them one processor or two.
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

// TestParallelRunLeavesNoWorkers pins the crew's lifetime: every worker
// a parallel Run starts is joined before Run returns, also when a
// shard-0 event panics mid-round and the panic is recovered outside Run.
func TestParallelRunLeavesNoWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	eng := tickEngine(4, 4, 500)
	eng.Run()
	if eng.Rounds() != 500 || eng.SoloRounds() != 0 {
		t.Fatalf("tick model ran %d rounds (%d solo), want 500 (0 solo)", eng.Rounds(), eng.SoloRounds())
	}
	if n := settleGoroutines(base); n != base {
		t.Fatalf("%d goroutines after Run, want the baseline %d", n, base)
	}

	eng = tickEngine(4, 4, 500)
	sh := eng.Shard(0)
	sh.At(100*psim.DefaultLookahead(), func() { panic("shard 0 event failed") })
	func() {
		defer func() {
			if r := recover(); r != "shard 0 event failed" {
				t.Errorf("recovered %v, want the shard-0 panic", r)
			}
		}()
		eng.Run()
	}()
	if eng.Rounds() <= 1 || eng.SoloRounds() != 0 {
		t.Fatalf("panic round %d (%d solo): the crew was never started", eng.Rounds(), eng.SoloRounds())
	}
	if n := settleGoroutines(base); n != base {
		t.Fatalf("%d goroutines after a panicking Run, want the baseline %d", n, base)
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
// round inline on the caller) and 2 (the crew), and requires one
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
// rounds, every round handing off to the crew, allocate the same.
func TestParallelRoundsAllocateNothing(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the crew needs GOMAXPROCS >= 2")
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
