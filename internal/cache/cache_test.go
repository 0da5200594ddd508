package cache

import (
	"testing"
	"testing/quick"
)

func smallConfig() Config {
	return Config{Name: "T", SizeBytes: 1024, LineBytes: 64, Assoc: 2, HitCycles: 1}
}

func TestConfigValidate(t *testing.T) {
	if err := smallConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{SizeBytes: 0, LineBytes: 64, Assoc: 1},
		{SizeBytes: 1024, LineBytes: 48, Assoc: 1},       // line not pow2
		{SizeBytes: 1000, LineBytes: 64, Assoc: 2},       // not divisible
		{SizeBytes: 64 * 3 * 2, LineBytes: 64, Assoc: 2}, // 3 sets
		{SizeBytes: 1024, LineBytes: 64, Assoc: 2, HitCycles: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
	if got := smallConfig().Sets(); got != 8 {
		t.Errorf("Sets() = %d, want 8", got)
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Exclusive.String() != "E" || Modified.String() != "M" {
		t.Error("State.String wrong")
	}
	if Invalid.Valid() || !Modified.Valid() {
		t.Error("State.Valid wrong")
	}
}

func TestReadMissFillHit(t *testing.T) {
	c := New(smallConfig())
	if out := c.Access(0x1000, false); out != Miss {
		t.Fatalf("cold read = %v, want miss", out)
	}
	c.Fill(0x1000, Exclusive)
	if out := c.Access(0x1000, false); out != Hit {
		t.Fatalf("warm read = %v, want hit", out)
	}
	// Same line, different offset: still a hit.
	if out := c.Access(0x103F, false); out != Hit {
		t.Fatalf("same-line read = %v, want hit", out)
	}
	// Next line: miss.
	if out := c.Access(0x1040, false); out != Miss {
		t.Fatalf("next-line read = %v, want miss", out)
	}
	s := c.Stats()
	if s.Reads != 4 || s.ReadMisses != 2 {
		t.Errorf("stats = %+v, want 4 reads 2 misses", s)
	}
	if hr := s.HitRate(); hr != 0.5 {
		t.Errorf("HitRate = %g, want 0.5", hr)
	}
}

func TestWriteUpgradePath(t *testing.T) {
	c := New(smallConfig())
	// Write to Exclusive upgrades silently.
	c.Fill(0x2000, Exclusive)
	if out := c.Access(0x2000, true); out != Hit {
		t.Fatalf("write to E = %v, want hit", out)
	}
	if st := c.Lookup(0x2000); st != Modified {
		t.Fatalf("state after write to E = %v, want M", st)
	}
	// Write to Shared needs a bus upgrade.
	c.Fill(0x3000, Shared)
	if out := c.Access(0x3000, true); out != HitNeedsUpgrade {
		t.Fatalf("write to S = %v, want hit-upgrade", out)
	}
	c.CompleteUpgrade(0x3000)
	if st := c.Lookup(0x3000); st != Modified {
		t.Fatalf("state after upgrade = %v, want M", st)
	}
	if c.Stats().Upgrades != 1 {
		t.Errorf("Upgrades = %d, want 1", c.Stats().Upgrades)
	}
}

func TestCompleteUpgradeAbsentPanics(t *testing.T) {
	c := New(smallConfig())
	defer func() {
		if recover() == nil {
			t.Error("CompleteUpgrade on absent line did not panic")
		}
	}()
	c.CompleteUpgrade(0x4000)
}

func TestFillInvalidStatePanics(t *testing.T) {
	c := New(smallConfig())
	defer func() {
		if recover() == nil {
			t.Error("Fill(Invalid) did not panic")
		}
	}()
	c.Fill(0, Invalid)
}

func TestLRUEviction(t *testing.T) {
	c := New(smallConfig()) // 8 sets, 2-way, 64B lines: set = lineAddr % 8
	// Three lines mapping to set 0: line addrs 0, 8, 16 → byte 0, 512, 1024.
	c.Fill(0, Exclusive)
	c.Fill(512, Exclusive)
	c.Access(0, false) // touch line 0: line 512 is now LRU
	v := c.Fill(1024, Exclusive)
	if !v.Valid || v.LineAddr != 512/64 {
		t.Fatalf("victim = %+v, want line %d", v, 512/64)
	}
	if c.Lookup(0) == Invalid || c.Lookup(1024) == Invalid {
		t.Error("kept lines lost")
	}
	if c.Lookup(512) != Invalid {
		t.Error("victim still present")
	}
}

func TestDirtyEvictionIsWriteback(t *testing.T) {
	c := New(smallConfig())
	c.Fill(0, Modified)
	c.Fill(512, Exclusive)
	c.Access(512, false)
	v := c.Fill(1024, Exclusive) // evicts line 0 (LRU), which is dirty
	if !v.Valid || !v.Dirty {
		t.Fatalf("victim = %+v, want dirty", v)
	}
	s := c.Stats()
	if s.Writebacks != 1 || s.Evictions != 1 {
		t.Errorf("stats = %+v, want 1 writeback, 1 eviction", s)
	}
}

func TestFillPresentLineUpdatesState(t *testing.T) {
	c := New(smallConfig())
	c.Fill(0, Shared)
	v := c.Fill(0, Modified)
	if v.Valid {
		t.Errorf("refill produced victim %+v", v)
	}
	if st := c.Lookup(0); st != Modified {
		t.Errorf("state = %v, want M", st)
	}
}

func TestSnoopRead(t *testing.T) {
	c := New(smallConfig())
	c.Fill(0x100, Modified)
	res := c.Snoop(0x100, false)
	if !res.Had || !res.Supplied {
		t.Fatalf("snoop read of M = %+v, want had+supplied", res)
	}
	if st := c.Lookup(0x100); st != Shared {
		t.Fatalf("state after snoop read = %v, want S", st)
	}
	// Snooping an Exclusive line degrades without supplying.
	c.Fill(0x200, Exclusive)
	res = c.Snoop(0x200, false)
	if !res.Had || res.Supplied {
		t.Fatalf("snoop read of E = %+v, want had only", res)
	}
	if st := c.Lookup(0x200); st != Shared {
		t.Fatalf("state after snoop read of E = %v, want S", st)
	}
	// Absent line: nothing.
	if res := c.Snoop(0x10000, false); res.Had {
		t.Error("snoop of absent line reported Had")
	}
}

func TestSnoopInvalidate(t *testing.T) {
	c := New(smallConfig())
	c.Fill(0x100, Shared)
	res := c.Snoop(0x100, true)
	if !res.Had {
		t.Fatal("snoop inval missed present line")
	}
	if st := c.Lookup(0x100); st != Invalid {
		t.Fatalf("state after snoop inval = %v, want I", st)
	}
	if c.Stats().InvalidationsReceived != 1 {
		t.Error("invalidation not counted")
	}
}

func TestInvalidateAllAndOccupancy(t *testing.T) {
	c := New(smallConfig())
	for i := uint64(0); i < 8; i++ {
		c.Fill(i*64, Exclusive)
	}
	if got := c.Occupancy(); got != 8 {
		t.Errorf("Occupancy = %d, want 8", got)
	}
	c.InvalidateAll()
	if got := c.Occupancy(); got != 0 {
		t.Errorf("Occupancy after InvalidateAll = %d", got)
	}
}

func TestResetStats(t *testing.T) {
	c := New(smallConfig())
	c.Access(0, false)
	c.ResetStats()
	if s := c.Stats(); s.Reads != 0 || s.ReadMisses != 0 {
		t.Errorf("stats not reset: %+v", s)
	}
}

// A read hit between a miss and its Fill moves the LRU way of the set, so
// the victim the miss's scan found is stale and Fill must look again.
func TestFillAfterInterveningHitTakesCurrentLRU(t *testing.T) {
	c := New(smallConfig()) // set 0 holds lines 0, 512 and 1024 in turn
	c.Fill(0, Exclusive)
	c.Fill(512, Exclusive) // line 0 is LRU
	if out := c.Access(1024, false); out != Miss {
		t.Fatalf("Access(1024) = %v, want miss", out)
	}
	if out := c.Access(0, false); out != Hit { // line 512 is now LRU
		t.Fatalf("Access(0) = %v, want hit", out)
	}
	if v := c.Fill(1024, Exclusive); !v.Valid || v.LineAddr != 512/64 {
		t.Fatalf("victim = %+v, want line %d", v, 512/64)
	}
	if c.Lookup(0) == Invalid {
		t.Error("recently used line 0 was evicted")
	}
}

// A snoop invalidation between a miss and its Fill frees a way of the set;
// the Fill must take it rather than evict the LRU line.
func TestFillAfterSnoopInvalidateTakesFreedWay(t *testing.T) {
	c := New(smallConfig())
	c.Fill(0, Exclusive)
	c.Fill(512, Exclusive) // line 0 is LRU
	if out := c.Access(1024, false); out != Miss {
		t.Fatalf("Access(1024) = %v, want miss", out)
	}
	if res := c.Snoop(512, true); !res.Had {
		t.Fatal("snoop missed line 512")
	}
	if v := c.Fill(1024, Exclusive); v.Valid {
		t.Fatalf("victim = %+v, want the freed way", v)
	}
	if c.Lookup(0) == Invalid {
		t.Error("LRU line 0 was evicted despite a free way")
	}
	if got := c.Occupancy(); got != 2 {
		t.Errorf("Occupancy = %d, want 2", got)
	}
}

// Property: capacity invariant — occupancy never exceeds the number of
// lines, and a fill always makes its own line present.
func TestFillInvariantProperty(t *testing.T) {
	cfg := Config{Name: "P", SizeBytes: 512, LineBytes: 32, Assoc: 2, HitCycles: 1}
	maxLines := cfg.SizeBytes / cfg.LineBytes
	f := func(addrs []uint16) bool {
		c := New(cfg)
		for _, a := range addrs {
			c.Fill(uint64(a), Exclusive)
			if c.Lookup(uint64(a)) == Invalid {
				return false
			}
			if c.Occupancy() > maxLines {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: an LRU cache of N lines always hits on a working set that
// fits in one set's associativity when accessed round-robin.
func TestAssocWorkingSetProperty(t *testing.T) {
	c := New(smallConfig()) // 2-way
	// Two lines in the same set, accessed alternately, never miss after warmup.
	a1, a2 := uint64(0), uint64(512)
	c.Fill(a1, Exclusive)
	c.Fill(a2, Exclusive)
	for i := 0; i < 100; i++ {
		if c.Access(a1, false) != Hit || c.Access(a2, false) != Hit {
			t.Fatal("working set within associativity missed")
		}
	}
}

// Property: Access never mutates state on a read hit.
func TestReadHitPreservesStateProperty(t *testing.T) {
	f := func(addr uint16, stRaw uint8) bool {
		st := State(stRaw%3) + Shared // S, E or M
		c := New(smallConfig())
		c.Fill(uint64(addr), st)
		c.Access(uint64(addr), false)
		return c.Lookup(uint64(addr)) == st
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// BenchmarkCacheAccess measures the per-access cost of the geometries the
// node models lean on: a direct-mapped hit (the PowerMANNA L2), an 8-way
// hit from a sequential 8-byte walk (the PowerMANNA L1 under a MatMult
// row) and a 64-way fully associative miss plus Fill (the SUN DTLB
// walking an 80-page and a 128-page cycle).
func BenchmarkCacheAccess(b *testing.B) {
	b.Run("direct-hit", func(b *testing.B) {
		c := New(Config{Name: "L2", SizeBytes: 2 << 20, LineBytes: 64, Assoc: 1})
		for i := uint64(0); i < 1024; i++ {
			c.Fill(i*64, Exclusive)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(uint64(i%1024)*64, false)
		}
	})
	b.Run("8way-hit", func(b *testing.B) {
		c := New(Config{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8})
		for i := uint64(0); i < 512; i++ {
			c.Fill(i*64, Exclusive)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(uint64(i%4096)*8, false)
		}
	})
	b.Run("64way-cyclic-80", func(b *testing.B) {
		// The naive MatMult column sweep: a cyclic walk over more pages than
		// the SUN DTLB holds, so LRU misses on every access.
		c := New(Config{Name: "DTLB", SizeBytes: 64 * 4096, LineBytes: 4096, Assoc: 64})
		for i := 0; i < b.N; i++ {
			a := uint64(i%80) * 4096
			if c.Access(a, false) == Miss {
				c.Fill(a, Exclusive)
			}
		}
	})
	b.Run("64way-column-hot", func(b *testing.B) {
		// The naive N=201 MatMult sweep on the SUN: each step of a cyclic
		// walk over 79 pages misses, and between steps the page of the A
		// row hits, so the victim queue sees one re-touched way per miss.
		c := New(Config{Name: "DTLB", SizeBytes: 64 * 4096, LineBytes: 4096, Assoc: 64})
		const hot = 1000 * 4096
		c.Fill(hot, Exclusive)
		for i := 0; i < b.N; i++ {
			a := uint64(i%79) * 4096
			if c.Access(a, false) == Miss {
				c.Fill(a, Exclusive)
			}
			c.Access(hot, false)
		}
	})
	b.Run("64way-miss-fill", func(b *testing.B) {
		c := New(Config{Name: "DTLB", SizeBytes: 64 * 4096, LineBytes: 4096, Assoc: 64})
		for i := 0; i < b.N; i++ {
			a := uint64(i%128) * 4096
			if c.Access(a, false) == Miss {
				c.Fill(a, Exclusive)
			}
		}
	})
}
