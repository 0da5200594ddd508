package earth

import (
	"testing"

	"powermanna/internal/metrics"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
)

func singleNode() *topo.Topology { return topo.New("single", 1) }

func TestLocalInvokeAndCharge(t *testing.T) {
	s := New(singleNode(), DefaultParams())
	ran := false
	proc := s.Register(func(ctx *Ctx, args []int64) {
		ran = true
		if args[0] != 42 {
			t.Errorf("args = %v", args)
		}
		ctx.Charge(1000)
		ctx.Write(7, args[0])
	})
	s.Invoke(0, proc, 42)
	makespan := s.Run()
	if !ran {
		t.Fatal("fiber did not run")
	}
	if s.Mem(0, 7) != 42 {
		t.Error("local write lost")
	}
	// Dispatch (40) + charge (1000) + write (1) cycles at 180 MHz ≈ 5.8 µs.
	if makespan < 5*sim.Microsecond || makespan > 7*sim.Microsecond {
		t.Errorf("makespan = %v, want ~5.8us", makespan)
	}
	if s.Stats().FibersRun != 1 {
		t.Errorf("FibersRun = %d", s.Stats().FibersRun)
	}
}

func TestSyncSlotFiresOnceAtZero(t *testing.T) {
	s := New(singleNode(), DefaultParams())
	fired := 0
	cont := s.Register(func(ctx *Ctx, args []int64) { fired++ })
	main := s.Register(func(ctx *Ctx, args []int64) {
		slot := ctx.SyncSlot(3, cont)
		for i := 0; i < 3; i++ {
			ctx.DataSync(0, uint64(100+i), int64(i), slot)
		}
	})
	s.Invoke(0, main)
	s.Run()
	if fired != 1 {
		t.Errorf("continuation fired %d times, want 1", fired)
	}
	for i := 0; i < 3; i++ {
		if s.Mem(0, uint64(100+i)) != int64(i) {
			t.Errorf("mem[%d] = %d", 100+i, s.Mem(0, uint64(100+i)))
		}
	}
}

func TestRemoteGetSync(t *testing.T) {
	s := New(topo.Cluster8(), DefaultParams())
	s.SetMem(3, 500, 777)
	var got int64
	var latency sim.Time
	var start sim.Time
	read := s.Register(func(ctx *Ctx, args []int64) {
		got = ctx.Read(uint64(args[0]))
		latency = ctx.Now() - start
	})
	main := s.Register(func(ctx *Ctx, args []int64) {
		buf := ctx.AllocBuf()
		slot := ctx.SyncSlot(1, read, int64(buf))
		start = ctx.Now()
		ctx.GetSync(3, 500, buf, slot)
	})
	s.Invoke(0, main)
	s.Run()
	if got != 777 {
		t.Fatalf("GetSync returned %d, want 777", got)
	}
	// Split-phase round trip: two control tokens through one crossbar
	// plus SU/EU handling — single-digit microseconds, the "low
	// communication cost close to the hardware limits" of [18].
	if latency < 1*sim.Microsecond || latency > 10*sim.Microsecond {
		t.Errorf("remote get round trip = %v, want a few us", latency)
	}
	if s.Stats().RemoteTokens != 2 {
		t.Errorf("remote tokens = %d, want 2 (request + reply)", s.Stats().RemoteTokens)
	}
}

func TestFibCorrectness(t *testing.T) {
	for _, n := range []int64{0, 1, 2, 5, 10, 15} {
		s := New(topo.Cluster8(), DefaultParams())
		got, _, err := RunFib(s, n)
		if err != nil {
			t.Fatalf("fib(%d): %v", n, err)
		}
		if want := FibReference(n); got != want {
			t.Errorf("fib(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestFibParallelSpeedup(t *testing.T) {
	const n = 18
	s1 := New(singleNode(), DefaultParams())
	v1, t1, err1 := RunFib(s1, n)
	s8 := New(topo.Cluster8(), DefaultParams())
	v8, t8, err8 := RunFib(s8, n)
	if err1 != nil || err8 != nil {
		t.Fatalf("fib errors: %v, %v", err1, err8)
	}
	if v1 != v8 || v1 != FibReference(n) {
		t.Fatalf("values diverge: %d vs %d", v1, v8)
	}
	speedup := float64(t1) / float64(t8)
	if speedup < 2 {
		t.Errorf("8-node speedup = %.2f, want > 2", speedup)
	}
	if s8.Stats().RemoteTokens == 0 {
		t.Error("no remote tokens despite 8 nodes")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() sim.Time {
		s := New(topo.Cluster8(), DefaultParams())
		_, makespan, _ := RunFib(s, 14)
		return makespan
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic: %v vs %v", a, b)
	}
}

func TestLostTokenDegradesToError(t *testing.T) {
	s := New(topo.Cluster8(), DefaultParams())
	// Sever every node uplink on both planes before any traffic: the
	// first remote token fails over, exhausts its attempts, and is lost.
	// The run must degrade to an error — not panic — so fault campaigns
	// can sweep fib under link cuts.
	for n := 0; n < s.Network().Topology().Nodes(); n++ {
		s.Network().CutWire(n, topo.NetworkA, 0)
		s.Network().CutWire(n, topo.NetworkB, 0)
	}
	_, _, err := RunFib(s, 12)
	if err == nil {
		t.Fatal("fib over a fully severed network reported no error")
	}
	if s.Err() == nil {
		t.Error("System.Err is nil after a lost token")
	}
}

func TestSlotMisusePanics(t *testing.T) {
	s := New(topo.Cluster8(), DefaultParams())
	cont := s.Register(func(ctx *Ctx, args []int64) {})
	cases := map[string]Proc{
		"zero-count slot": func(ctx *Ctx, args []int64) {
			ctx.SyncSlot(0, cont)
		},
		"foreign DataSync slot": func(ctx *Ctx, args []int64) {
			slot := ctx.SyncSlot(1, cont)
			ctx.DataSync(1, 10, 5, slot) // slot lives on node 0, write to node 1
		},
		"foreign GetSync slot": func(ctx *Ctx, args []int64) {
			ctx.GetSync(1, 10, 20, SlotRef{Node: 1, ID: 1})
		},
		"six fiber args": func(ctx *Ctx, args []int64) {
			ctx.Invoke(0, cont, 1, 2, 3, 4, 5, 6)
		},
	}
	for name, body := range cases {
		s := New(topo.Cluster8(), DefaultParams())
		proc := s.Register(body)
		s.Invoke(0, proc)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			s.Run()
		}()
	}
	_ = s
}

func TestOverDecrementPanics(t *testing.T) {
	s := New(singleNode(), DefaultParams())
	cont := s.Register(func(ctx *Ctx, args []int64) {})
	main := s.Register(func(ctx *Ctx, args []int64) {
		slot := ctx.SyncSlot(1, cont)
		ctx.DataSync(0, 1, 1, slot)
		ctx.DataSync(0, 2, 2, slot) // second decrement: slot already gone
	})
	s.Invoke(0, main)
	defer func() {
		if recover() == nil {
			t.Error("over-decrement did not panic")
		}
	}()
	s.Run()
}

func TestEUSerializesFibers(t *testing.T) {
	// Two heavy fibers on one node run back to back on the single EU.
	s := New(singleNode(), DefaultParams())
	heavy := s.Register(func(ctx *Ctx, args []int64) { ctx.Charge(180_000) }) // 1 ms
	s.Invoke(0, heavy)
	s.Invoke(0, heavy)
	makespan := s.Run()
	if makespan < 2*sim.Millisecond {
		t.Errorf("two 1 ms fibers finished in %v, want >= 2ms (one EU)", makespan)
	}
}

// TestFiberDwellHistogram pins the ready-queue dwell instrument: every
// dequeue observes a dwell — including the zero-dwell dequeues of an
// idle EU — so the histogram's count equals the fiber count, and a
// loaded run records at least one zero dwell (the very first fiber
// starts on an empty EU).
func TestFiberDwellHistogram(t *testing.T) {
	s := New(topo.Cluster8(), DefaultParams())
	reg := metrics.NewRegistry()
	s.SetMetrics(reg)
	if _, _, err := RunFib(s, 12); err != nil {
		t.Fatal(err)
	}
	dwell := reg.TimeHistogram(MetricFiberDwell, nil)
	if got, want := dwell.Count(), s.Stats().FibersRun; got != want {
		t.Errorf("dwell observations = %d, fibers run = %d", got, want)
	}
	if dwell.Count() == 0 {
		t.Fatal("no fibers ran")
	}
}
