package heat

import (
	"fmt"
	"runtime"
	"testing"

	"powermanna/internal/mpl"
	"powermanna/internal/topo"
)

// TestPartMatchesSerialExactly pins the SPMD solver's arithmetic: the
// field computed over the partitioned world is bit-identical to the
// serial reference, at every aligned shard count.
func TestPartMatchesSerialExactly(t *testing.T) {
	top := topo.System256()
	cfg := DefaultConfig(24*top.Nodes(), 60)
	want, err := RunSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		w, err := mpl.NewPWorld(top, shards)
		if err != nil {
			t.Fatalf("NewPWorld(%d): %v", shards, err)
		}
		res, err := RunPart(w, cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for i := range want {
			if res.Field[i] != want[i] {
				t.Fatalf("shards=%d: cell %d = %g, want %g", shards, i, res.Field[i], want[i])
			}
		}
		if res.Makespan <= 0 || res.Messages == 0 {
			t.Fatalf("shards=%d: trivial result %+v", shards, res)
		}
	}
}

// TestPartDeterministicAcrossShards pins the timing side: identical
// makespan and traffic at every aligned shard count, serial or
// parallel dispatch.
func TestPartDeterministicAcrossShards(t *testing.T) {
	top := topo.System256()
	cfg := DefaultConfig(8*top.Nodes(), 12)
	cfg.ReduceEvery = 6
	run := func(shards int, serial bool) Result {
		w, err := mpl.NewPWorld(top, shards)
		if err != nil {
			t.Fatalf("NewPWorld(%d): %v", shards, err)
		}
		w.PartNetwork().SetSerial(serial)
		res, err := RunPart(w, cfg)
		if err != nil {
			t.Fatalf("shards=%d serial=%v: %v", shards, serial, err)
		}
		return res
	}
	ref := run(1, false)
	for _, shards := range []int{2, 8, 16} {
		got := run(shards, false)
		if got.Makespan != ref.Makespan || got.Messages != ref.Messages || got.MsgBytes != ref.MsgBytes {
			t.Errorf("shards=%d: makespan %v msgs %d bytes %d, want %v %d %d",
				shards, got.Makespan, got.Messages, got.MsgBytes, ref.Makespan, ref.Messages, ref.MsgBytes)
		}
	}
	if got := run(4, true); got.Makespan != ref.Makespan {
		t.Errorf("serial dispatch: makespan %v, want %v", got.Makespan, ref.Makespan)
	}
}

// TestPartCrossWorkerResume runs the quick System256 solve under
// parallel dispatch at GOMAXPROCS 1 and 2, where each rank coroutine is
// resumed by whichever goroutine runs its shard's round. Every run must
// equal the 1-shard serial run: field, makespan, messages and engine
// rounds.
func TestPartCrossWorkerResume(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	top := topo.System256()
	cfg := DefaultConfig(24*top.Nodes(), 30)
	run := func(shards int, serial bool) (Result, uint64) {
		w, err := mpl.NewPWorld(top, shards)
		if err != nil {
			t.Fatalf("NewPWorld(%d): %v", shards, err)
		}
		w.PartNetwork().SetSerial(serial)
		res, err := RunPart(w, cfg)
		if err != nil {
			t.Fatalf("shards=%d serial=%v: %v", shards, serial, err)
		}
		return res, w.PartNetwork().Engine().Rounds()
	}
	ref, refRounds := run(1, true)
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{1, 2, 4} {
			got, rounds := run(shards, false)
			for i := range ref.Field {
				if got.Field[i] != ref.Field[i] {
					t.Fatalf("GOMAXPROCS %d shards=%d: cell %d = %g, want %g", procs, shards, i, got.Field[i], ref.Field[i])
				}
			}
			if got.Makespan != ref.Makespan || got.Messages != ref.Messages || rounds != refRounds {
				t.Errorf("GOMAXPROCS %d shards=%d: makespan %v msgs %d rounds %d, want %v %d %d",
					procs, shards, got.Makespan, got.Messages, rounds, ref.Makespan, ref.Messages, refRounds)
			}
		}
	}
}

// BenchmarkHeatSystem256 sweeps the partitioned heat solver across
// shard counts on the full machine: engine=seq is the single-heap
// serial-dispatch baseline, engine=par fans the shard heaps across
// worker goroutines. Wall-clock at shards=4 under -cpu 4 is the
// headline: the same byte-identical event program, walked in parallel.
func BenchmarkHeatSystem256(b *testing.B) {
	top := topo.System256()
	cfg := DefaultConfig(24*top.Nodes(), 30)
	run := func(b *testing.B, shards int, serial bool) {
		for i := 0; i < b.N; i++ {
			w, err := mpl.NewPWorld(top, shards)
			if err != nil {
				b.Fatal(err)
			}
			w.PartNetwork().SetSerial(serial)
			if _, err := RunPart(w, cfg); err != nil {
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
