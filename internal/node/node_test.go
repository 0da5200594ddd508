package node

import (
	"testing"

	"powermanna/internal/bus"
	"powermanna/internal/cache"
	"powermanna/internal/cpu"
	"powermanna/internal/mem"
	"powermanna/internal/sim"
)

func testCore() cpu.Config {
	cfg := cpu.Config{
		Name:       "testcore",
		Clock:      sim.ClockMHz(180),
		IssueWidth: 4,
		MissQueue:  1,
		HasFMA:     true,
	}
	cfg.Units[cpu.UnitIntALU] = 2
	cfg.Units[cpu.UnitIntMul] = 1
	cfg.Units[cpu.UnitFPU] = 1
	cfg.Units[cpu.UnitLS] = 1
	cfg.Units[cpu.UnitBranch] = 1
	cfg.Timing[cpu.IntALU] = cpu.OpTiming{Unit: cpu.UnitIntALU, Latency: 1, Pipelined: true}
	cfg.Timing[cpu.IntMul] = cpu.OpTiming{Unit: cpu.UnitIntMul, Latency: 4, Pipelined: true}
	cfg.Timing[cpu.IntDiv] = cpu.OpTiming{Unit: cpu.UnitIntMul, Latency: 20, Pipelined: false}
	cfg.Timing[cpu.FPAdd] = cpu.OpTiming{Unit: cpu.UnitFPU, Latency: 3, Pipelined: true}
	cfg.Timing[cpu.FPMul] = cpu.OpTiming{Unit: cpu.UnitFPU, Latency: 3, Pipelined: true}
	cfg.Timing[cpu.FPMAdd] = cpu.OpTiming{Unit: cpu.UnitFPU, Latency: 3, Pipelined: true}
	cfg.Timing[cpu.FPDiv] = cpu.OpTiming{Unit: cpu.UnitFPU, Latency: 18, Pipelined: false}
	cfg.Timing[cpu.Load] = cpu.OpTiming{Unit: cpu.UnitLS, Latency: 2, Pipelined: true}
	cfg.Timing[cpu.Store] = cpu.OpTiming{Unit: cpu.UnitLS, Latency: 1, Pipelined: true}
	cfg.Timing[cpu.Branch] = cpu.OpTiming{Unit: cpu.UnitBranch, Latency: 1, Pipelined: true}
	return cfg
}

func testConfig(cpus int, kind FabricKind) Config {
	return Config{
		Name:          "testnode",
		CPUs:          cpus,
		Core:          testCore(),
		L1D:           cache.Config{Name: "L1D", SizeBytes: 512, LineBytes: 64, Assoc: 2, HitCycles: 2},
		L2:            cache.Config{Name: "L2", SizeBytes: 2048, LineBytes: 64, Assoc: 2, HitCycles: 8},
		TLB:           cache.Config{Name: "DTLB", SizeBytes: 64 * 4096, LineBytes: 4096, Assoc: 64, HitCycles: 0},
		TLBWalkCycles: 0, // keep node-level unit tests translation-free
		Fabric:        kind,
		Bus: bus.Config{
			Name:          "bus",
			Clock:         sim.ClockMHz(60),
			AddressCycles: 2,
			DataBeatBytes: 16,
			LineBytes:     64,
		},
		Mem: mem.Config{
			Banks:           4,
			InterleaveBytes: 64,
			AccessLatency:   100 * sim.Nanosecond,
			BankBusy:        160 * sim.Nanosecond,
			LineTransfer:    100 * sim.Nanosecond,
		},
	}
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig(2, SwitchedFabric).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	c := testConfig(2, SwitchedFabric)
	c.CPUs = 0
	if err := c.Validate(); err == nil {
		t.Error("zero CPUs accepted")
	}
	c = testConfig(2, SwitchedFabric)
	c.L1D.LineBytes = 32
	c.L1D.SizeBytes = 512
	if err := c.Validate(); err == nil {
		t.Error("L1/L2 line mismatch accepted")
	}
	c = testConfig(2, SwitchedFabric)
	c.Bus.LineBytes = 32
	if err := c.Validate(); err == nil {
		t.Error("bus/L2 line mismatch accepted")
	}
}

func TestFabricKindString(t *testing.T) {
	if SharedBusFabric.String() != "shared-bus" || SwitchedFabric.String() != "switched" {
		t.Error("FabricKind.String wrong")
	}
}

func TestAccessLatencyHierarchy(t *testing.T) {
	n := New(testConfig(1, SwitchedFabric))
	p := n.Proc(0)
	// Cold: memory access.
	memLat := p.Access(0x10000, false)
	// Warm L1.
	l1Lat := p.Access(0x10000, false)
	if l1Lat != 2 {
		t.Errorf("L1 hit latency = %d, want 2", l1Lat)
	}
	if memLat <= 8 {
		t.Errorf("memory latency = %d cycles, want > L2 hit", memLat)
	}
	// Evict from L1 only: lines 256 B apart share the L1 set (4 sets of
	// 64 B lines) but land in distinct L2 sets (16 sets), so three extra
	// accesses push 0x10000 out of the 2-way L1 while the L2 keeps it.
	for i := uint64(1); i <= 3; i++ {
		p.Access(0x10000+i*256, false)
	}
	l2Lat := p.Access(0x10000, false)
	if l2Lat != 8 {
		t.Errorf("L2 hit latency = %d, want 8", l2Lat)
	}
	if !(l1Lat < l2Lat && l2Lat < memLat) {
		t.Errorf("latency ordering violated: L1=%d L2=%d MEM=%d", l1Lat, l2Lat, memLat)
	}
}

func TestCacheToCacheTransfer(t *testing.T) {
	n := New(testConfig(2, SwitchedFabric))
	p0, p1 := n.Proc(0), n.Proc(1)
	// CPU0 writes a line: Modified in its caches.
	p0.Access(0x4000, true)
	if st := p0.L1().Lookup(0x4000); st != cache.Modified {
		t.Fatalf("CPU0 L1 state = %v, want M", st)
	}
	// CPU1 reads the line: CPU0 supplies, both end Shared.
	p1.Access(0x4000, false)
	if st := p0.L1().Lookup(0x4000); st != cache.Shared {
		t.Errorf("CPU0 L1 after peer read = %v, want S", st)
	}
	if st := p1.L2().Lookup(0x4000); st != cache.Shared {
		t.Errorf("CPU1 L2 after fill = %v, want S", st)
	}
	if n.Proc(0).L2().Stats().SuppliedCacheToCache+n.Proc(0).L1().Stats().SuppliedCacheToCache == 0 {
		t.Error("no cache-to-cache supply recorded")
	}
}

func TestWriteInvalidatesPeers(t *testing.T) {
	n := New(testConfig(2, SwitchedFabric))
	p0, p1 := n.Proc(0), n.Proc(1)
	// Both read: Shared everywhere.
	p0.Access(0x8000, false)
	p1.Access(0x8000, false)
	if st := p0.L2().Lookup(0x8000); st != cache.Shared {
		t.Fatalf("CPU0 L2 = %v, want S after peer read", st)
	}
	// CPU1 writes: upgrade, CPU0 invalidated.
	p1.Access(0x8000, true)
	if st := p0.L1().Lookup(0x8000); st != cache.Invalid {
		t.Errorf("CPU0 L1 after peer write = %v, want I", st)
	}
	if st := p0.L2().Lookup(0x8000); st != cache.Invalid {
		t.Errorf("CPU0 L2 after peer write = %v, want I", st)
	}
	if st := p1.L1().Lookup(0x8000); st != cache.Modified {
		t.Errorf("CPU1 L1 = %v, want M", st)
	}
}

func TestExclusiveFillWhenUnshared(t *testing.T) {
	n := New(testConfig(2, SwitchedFabric))
	p0 := n.Proc(0)
	p0.Access(0xC000, false)
	if st := p0.L2().Lookup(0xC000); st != cache.Exclusive {
		t.Errorf("unshared read fill = %v, want E", st)
	}
	// A write hit on E upgrades silently — no new address phases beyond
	// the original fill's.
	phases := n.Fabric().Stats().AddressPhases
	p0.Access(0xC000, true)
	if got := n.Fabric().Stats().AddressPhases; got != phases {
		t.Errorf("silent E->M upgrade used %d extra address phases", got-phases)
	}
}

func TestInclusiveBackInvalidation(t *testing.T) {
	n := New(testConfig(1, SwitchedFabric))
	p := n.Proc(0)
	// L2 is 2 KB, 2-way, 64 B lines: 16 sets. Lines 2048 bytes apart share
	// an L2 set. Fill three such lines: the first is evicted from L2 and
	// must leave L1 as well.
	p.Access(0x0000, false)
	p.Access(0x0800, false)
	p.Access(0x1000, false)
	if st := p.L2().Lookup(0x0000); st != cache.Invalid {
		t.Fatalf("L2 did not evict: %v", st)
	}
	if st := p.L1().Lookup(0x0000); st != cache.Invalid {
		t.Errorf("L1 kept back-invalidated line: %v", st)
	}
}

// An L2 fill that back-invalidates a line in the missing line's L1 set
// frees an L1 way after the L1 miss was classified; the L1 fill must take
// that way rather than evict the L1's LRU line.
func TestL1FillTakesBackInvalidatedWay(t *testing.T) {
	n := New(testConfig(1, SwitchedFabric))
	p := n.Proc(0)
	// L1: 4 sets, lines 256 bytes apart share one. L2: 16 sets, lines
	// 1024 bytes apart share one. v, w and x share L1 set 0 and L2 set 0;
	// a shares L1 set 0 only.
	const v, w, a, x = 0x0000, 0x0400, 0x0100, 0x1000
	p.Access(v, false)
	p.Access(w, false)
	p.Access(v, false) // L1 hit: w is the L1 LRU, v stays the L2 LRU
	p.Access(a, false) // evicts w from the L1
	p.Access(v, false) // L1 hit: a is the L1 LRU
	p.Access(x, false) // the L2 fill evicts v, which leaves the L1 too
	if st := p.L1().Lookup(v); st != cache.Invalid {
		t.Fatalf("L1 kept back-invalidated line: %v", st)
	}
	if p.L1().Lookup(x) == cache.Invalid {
		t.Fatal("L1 did not install the missing line")
	}
	if p.L1().Lookup(a) == cache.Invalid {
		t.Error("L1 fill evicted its LRU line instead of taking the freed way")
	}
	if got := p.L1().Stats().Evictions; got != 1 {
		t.Errorf("L1 evictions = %d, want 1 (w only)", got)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	n := New(testConfig(1, SwitchedFabric))
	p := n.Proc(0)
	p.Access(0x0000, true) // dirty
	p.Access(0x0800, false)
	before := n.Memory().Stats().Writes
	p.Access(0x1000, false) // evicts dirty 0x0000 from L2
	if got := n.Memory().Stats().Writes; got != before+1 {
		t.Errorf("memory writes = %d, want %d (victim writeback)", got, before+1)
	}
}

func TestStoreLatencyIsBuffered(t *testing.T) {
	n := New(testConfig(1, SwitchedFabric))
	p := n.Proc(0)
	lat := p.Access(0x2000, true) // cold write miss
	if lat != 2 {
		t.Errorf("store miss latency = %d, want 2 (store-buffered)", lat)
	}
}

func TestAdvanceHelpers(t *testing.T) {
	n := New(testConfig(1, SwitchedFabric))
	p := n.Proc(0)
	p.AdvanceCycles(10)
	want := testCore().Clock.Cycles(10)
	if p.Now() < want || p.Now() > want+sim.Nanosecond {
		t.Errorf("Now = %v after 10 cycles, want ~%v", p.Now(), want)
	}
}

func TestReset(t *testing.T) {
	n := New(testConfig(2, SwitchedFabric))
	p := n.Proc(0)
	p.Access(0x123, true)
	p.AdvanceCycles(100)
	n.Reset()
	if p.Now() != 0 {
		t.Error("Reset did not zero local time")
	}
	if p.l1.Lookup(0x123) != cache.Invalid || p.l2.Lookup(0x123) != cache.Invalid {
		t.Error("Reset did not clear caches")
	}
	if n.Fabric().Stats().AddressPhases != 0 {
		t.Error("Reset did not clear fabric stats")
	}
}

// sumKernel touches a private range, one line per step.
type sumKernel struct {
	p     *Proc
	base  uint64
	steps int
	done  int
}

func (k *sumKernel) Proc() *Proc { return k.p }
func (k *sumKernel) Step() bool {
	if k.done >= k.steps {
		return false
	}
	lat := k.p.Access(k.base+uint64(k.done)*64, false)
	k.p.AdvanceCycles(float64(lat))
	k.done++
	return k.done < k.steps
}

func TestRunParallelMergesByTime(t *testing.T) {
	n := New(testConfig(2, SharedBusFabric))
	k0 := &sumKernel{p: n.Proc(0), base: 0x00000, steps: 50}
	k1 := &sumKernel{p: n.Proc(1), base: 0x80000, steps: 50}
	makespan := RunParallel(k0, k1)
	if makespan <= 0 {
		t.Fatal("zero makespan")
	}
	if k0.done != 50 || k1.done != 50 {
		t.Errorf("kernels incomplete: %d, %d", k0.done, k1.done)
	}
	// Both streams hammer the shared bus: makespan must exceed a single
	// stream running alone.
	n2 := New(testConfig(2, SharedBusFabric))
	kSolo := &sumKernel{p: n2.Proc(0), base: 0x00000, steps: 50}
	solo := RunParallel(kSolo)
	if makespan <= solo {
		t.Errorf("parallel makespan %v not above solo %v on shared bus", makespan, solo)
	}
}

func TestSwitchedFabricLessContentionThanShared(t *testing.T) {
	run := func(kind FabricKind) sim.Time {
		n := New(testConfig(2, kind))
		k0 := &sumKernel{p: n.Proc(0), base: 0x00000, steps: 200}
		k1 := &sumKernel{p: n.Proc(1), base: 0x80000, steps: 200}
		return RunParallel(k0, k1)
	}
	shared := run(SharedBusFabric)
	switched := run(SwitchedFabric)
	if switched >= shared {
		t.Errorf("switched fabric (%v) not faster than shared bus (%v) under dual-stream misses", switched, shared)
	}
}

// A burst of fabric-bound stores beyond the store-buffer depth must
// stall: the returned latency of the overflowing store exceeds the L1
// hit latency by the wait for the oldest outstanding store.
func TestStoreBufferBackpressure(t *testing.T) {
	n := New(testConfig(2, SwitchedFabric))
	p0, p1 := n.Proc(0), n.Proc(1)
	// Prime: both CPUs share a set of lines so p0's writes need upgrades.
	for i := uint64(0); i < 32; i++ {
		p0.Access(0x40000+i*64, false)
		p1.Access(0x40000+i*64, false)
	}
	// p0 fires upgrade stores back-to-back without advancing time: the
	// first several are absorbed by the buffer, then stalls appear.
	sawStall := false
	for i := uint64(0); i < 32; i++ {
		lat := p0.Access(0x40000+i*64, true)
		if lat > p0.L1HitCycles() {
			sawStall = true
		}
	}
	if !sawStall {
		t.Error("no store-buffer backpressure under an upgrade burst")
	}
	// After advancing past all completions, an upgrade store on a fresh
	// L1-resident Shared line is cheap again.
	p0.now += sim.Millisecond
	p0.Access(0x80000, false)
	p1.Access(0x80000, false) // makes p0's copy Shared
	if lat := p0.Access(0x80000, true); lat != p0.L1HitCycles() {
		t.Errorf("store after drain cost %d cycles, want %d", lat, p0.L1HitCycles())
	}
}

func TestL1HitCyclesAccessor(t *testing.T) {
	n := New(testConfig(1, SwitchedFabric))
	if got := n.Proc(0).L1HitCycles(); got != 2 {
		t.Errorf("L1HitCycles = %d, want 2", got)
	}
}
