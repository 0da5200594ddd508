// Package node composes the per-node machine model: one or more processor
// cores with private L1/L2 cache stacks, the node interconnect fabric, and
// main memory. It implements the coherence choreography between them —
// snooping peers on misses, cache-to-cache supply from Modified lines,
// invalidations on writes, inclusive back-invalidation, and writebacks —
// using the state kept in internal/cache and the timing kept in
// internal/bus and internal/mem.
//
// Benchmark kernels drive a node through per-CPU Proc handles: each Proc
// keeps its own local simulated time, every memory access is classified
// against the caches and, when it escapes the private hierarchy, timed
// against the shared fabric. SMP runs interleave the per-CPU kernels in
// local-time order (RunParallel), which is how contention between the
// node's processors — the subject of Figure 8 — emerges.
package node

import (
	"fmt"

	"powermanna/internal/bus"
	"powermanna/internal/cache"
	"powermanna/internal/cpu"
	"powermanna/internal/mem"
	"powermanna/internal/sim"
)

// FabricKind selects the node interconnect organization.
type FabricKind uint8

const (
	// SharedBusFabric: one bus for address and data phases (SUN, PC).
	SharedBusFabric FabricKind = iota
	// SwitchedFabric: the PowerMANNA ADSP switch + central dispatcher.
	SwitchedFabric
)

// String names the intra-node datapath kind.
func (k FabricKind) String() string {
	if k == SharedBusFabric {
		return "shared-bus"
	}
	return "switched"
}

// Config describes a node.
type Config struct {
	// Name labels the node type, e.g. "PowerMANNA".
	Name string
	// CPUs is the number of processors installed (2 in all of Table 1;
	// the scalability ablation sweeps it).
	CPUs int
	// Core is the processor core description.
	Core cpu.Config
	// L1D and L2 describe each CPU's private data-cache stack. HitCycles
	// are in core cycles. Both levels must share a line size.
	L1D, L2 cache.Config
	// TLB describes each CPU's data TLB as a cache of page translations:
	// LineBytes is the page size, SizeBytes/LineBytes/Assoc the geometry.
	// The MPC620's on-chip MMU with demand-paged translation (Section 2)
	// is what lets PowerMANNA drive communication from user space; for the
	// node benchmarks its reach decides when large-stride access patterns
	// (naive MatMult columns) start paying translation penalties.
	TLB cache.Config
	// TLBWalkCycles is the page-table-walk penalty per TLB miss, in core
	// cycles (hardware walk on the MPC620/PII, software trap on the
	// UltraSPARC).
	TLBWalkCycles int
	// Fabric selects the interconnect organization.
	Fabric FabricKind
	// Bus is the interconnect timing.
	Bus bus.Config
	// Mem is the main-memory timing.
	Mem mem.Config
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	if c.CPUs <= 0 {
		return fmt.Errorf("node %q: CPUs = %d", c.Name, c.CPUs)
	}
	if err := c.Core.Validate(); err != nil {
		return err
	}
	if err := c.L1D.Validate(); err != nil {
		return err
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if c.L1D.LineBytes != c.L2.LineBytes {
		return fmt.Errorf("node %q: L1 line %d != L2 line %d", c.Name, c.L1D.LineBytes, c.L2.LineBytes)
	}
	if err := c.TLB.Validate(); err != nil {
		return err
	}
	if c.TLBWalkCycles < 0 {
		return fmt.Errorf("node %q: negative TLBWalkCycles", c.Name)
	}
	if c.Bus.LineBytes != c.L2.LineBytes {
		return fmt.Errorf("node %q: bus line %d != L2 line %d", c.Name, c.Bus.LineBytes, c.L2.LineBytes)
	}
	if err := c.Bus.Validate(); err != nil {
		return err
	}
	if err := c.Mem.Validate(); err != nil {
		return err
	}
	return nil
}

// Node is one instantiated machine node.
type Node struct {
	cfg    Config
	memory *mem.Memory
	fabric bus.Fabric
	procs  []*Proc
}

// New builds a node. It panics on invalid configuration.
func New(cfg Config) *Node {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := mem.New(cfg.Mem)
	var fab bus.Fabric
	switch cfg.Fabric {
	case SwitchedFabric:
		fab = bus.NewSwitched(cfg.Bus, m)
	default:
		fab = bus.NewShared(cfg.Bus, m)
	}
	n := &Node{cfg: cfg, memory: m, fabric: fab}
	for i := 0; i < cfg.CPUs; i++ {
		l1cfg := cfg.L1D
		l1cfg.Name = fmt.Sprintf("%s/cpu%d/L1D", cfg.Name, i)
		l2cfg := cfg.L2
		l2cfg.Name = fmt.Sprintf("%s/cpu%d/L2", cfg.Name, i)
		tlbcfg := cfg.TLB
		tlbcfg.Name = fmt.Sprintf("%s/cpu%d/DTLB", cfg.Name, i)
		n.procs = append(n.procs, &Proc{
			node:       n,
			l1:         cache.New(l1cfg),
			l2:         cache.New(l2cfg),
			tlb:        cache.New(tlbcfg),
			clock:      cfg.Core.Clock,
			l1Hit:      int64(cfg.L1D.HitCycles),
			l2Hit:      int64(cfg.L2.HitCycles),
			walkCycles: int64(cfg.TLBWalkCycles),
		})
	}
	return n
}

// Config returns the node configuration.
func (n *Node) Config() Config { return n.cfg }

// Proc returns CPU i's handle.
func (n *Node) Proc(i int) *Proc { return n.procs[i] }

// Procs returns all CPU handles.
func (n *Node) Procs() []*Proc { return n.procs }

// Fabric exposes the interconnect (for stats and the scalability ablation).
func (n *Node) Fabric() bus.Fabric { return n.fabric }

// Memory exposes the memory model (for stats).
func (n *Node) Memory() *mem.Memory { return n.memory }

// Reset restores the node to cold caches, idle fabric and zeroed local
// times, keeping the configuration.
func (n *Node) Reset() {
	n.memory.Reset()
	n.fabric.Reset()
	for _, p := range n.procs {
		p.l1.InvalidateAll()
		p.l1.ResetStats()
		p.l2.InvalidateAll()
		p.l2.ResetStats()
		p.tlb.InvalidateAll()
		p.tlb.ResetStats()
		p.storeRing = [storeBufferDepth]sim.Time{}
		p.storePos = 0
		p.now = 0
	}
}

// storeBufferDepth is the number of outstanding stores a core can hold
// before a store that needs the fabric stalls the pipeline. Era-typical.
const storeBufferDepth = 8

// Proc is one processor's view of the node.
type Proc struct {
	node *Node
	l1   *cache.Cache
	l2   *cache.Cache
	tlb  *cache.Cache
	now  sim.Time
	// Copies of the node configuration read on every access.
	clock        sim.Clock
	l1Hit, l2Hit int64
	walkCycles   int64
	// storeRing holds completion times of in-flight stores that needed a
	// fabric transaction; a full ring backpressures the next such store.
	storeRing [storeBufferDepth]sim.Time
	storePos  int
}

// Now returns the processor's local simulated time.
func (p *Proc) Now() sim.Time { return p.now }

// AdvanceCycles moves local time forward by a fractional core-cycle count.
func (p *Proc) AdvanceCycles(c float64) {
	p.now += p.clock.CyclesF(c)
}

// Core returns the processor core description.
func (p *Proc) Core() *cpu.Config { return &p.node.cfg.Core }

// L1 returns the private first-level data cache (for stats and tests).
func (p *Proc) L1() *cache.Cache { return p.l1 }

// L1HitCycles is the baseline store/load hit latency; kernels subtract it
// from a store's returned latency to find the store-buffer stall they
// must charge beyond their loop template's store slot.
func (p *Proc) L1HitCycles() int64 { return p.l1Hit }

// L2 returns the private second-level cache (for stats and tests).
func (p *Proc) L2() *cache.Cache { return p.l2 }

// TLB returns the data TLB (for stats and tests).
func (p *Proc) TLB() *cache.Cache { return p.tlb }

// translate looks addr's page up in the data TLB, returning the
// page-table-walk penalty in core cycles (0 on a hit). The walk's own
// memory references are folded into the penalty.
func (p *Proc) translate(addr uint64) int64 {
	if p.tlb.Access(addr, false) == cache.Hit {
		return 0
	}
	p.tlb.Fill(addr, cache.Exclusive)
	return p.walkCycles
}

// snoop applies a bus transaction for lineByteAddr to this processor's
// caches (both levels) and reports whether it held or supplied the line.
func (p *Proc) snoop(lineByteAddr uint64, exclusive bool) cache.SnoopResult {
	r2 := p.l2.Snoop(lineByteAddr, exclusive)
	r1 := p.l1.Snoop(lineByteAddr, exclusive)
	return cache.SnoopResult{
		Had:      r1.Had || r2.Had,
		Supplied: r1.Supplied || r2.Supplied,
	}
}

// snoopPeers probes every other processor, returning whether any peer had
// the line and whether one supplied it from Modified.
func (p *Proc) snoopPeers(lineByteAddr uint64, exclusive bool) (had, supplied bool) {
	for _, q := range p.node.procs {
		if q == p {
			continue
		}
		r := q.snoop(lineByteAddr, exclusive)
		had = had || r.Had
		supplied = supplied || r.Supplied
	}
	return had, supplied
}

// Access performs one data access at the processor's current local time
// and returns its load-use latency in core cycles. The returned latency is
// what a kernel feeds the cpu.CostModel; stores return the L1 store
// latency because the store buffer hides completion, but all coherence
// work (upgrades, fills, invalidations, writebacks) still happens and is
// charged to the shared resources.
//
// The common case, a TLB hit and an L1 read hit, is two inlined
// Cache.ReadHit probes; a failed probe falls back to the full lookup,
// and a read that misses the L1 probes the L2 the same way first.
func (p *Proc) Access(addr uint64, write bool) int64 {
	var walk int64
	if !p.tlb.ReadHit(addr) {
		walk = p.translate(addr)
	}
	l1Hit := p.l1Hit + walk
	if !write && p.l1.ReadHit(addr) {
		return l1Hit
	}
	switch p.l1.Access(addr, write) {
	case cache.Hit:
		return l1Hit
	case cache.HitNeedsUpgrade:
		// Write hit on Shared: invalidate peers via an address-only phase.
		done := p.node.fabric.Upgrade(p.now)
		p.snoopPeers(addr, true)
		p.l1.CompleteUpgrade(addr)
		if p.l2.Lookup(addr).Valid() {
			p.l2.Fill(addr, cache.Modified)
		}
		return l1Hit + p.pushStore(done)
	}

	// L1 miss: try the private L2.
	l2Outcome := cache.Hit
	if write || !p.l2.ReadHit(addr) {
		l2Outcome = p.l2.Access(addr, write)
	}
	switch l2Outcome {
	case cache.Hit:
		st := cache.Modified
		if !write {
			// Access reports no state: a read hit asks the L2 for it.
			st = cache.Exclusive
			if p.l2.Lookup(addr) == cache.Shared {
				st = cache.Shared
			}
		}
		p.fillL1(addr, st)
		return p.l2Hit + walk
	case cache.HitNeedsUpgrade:
		done := p.node.fabric.Upgrade(p.now)
		p.snoopPeers(addr, true)
		p.l2.CompleteUpgrade(addr)
		p.fillL1(addr, cache.Modified)
		return p.l2Hit + walk + p.pushStore(done)
	}

	// L2 miss: a coherent fabric transaction.
	lineAddr := addr / uint64(p.node.cfg.L2.LineBytes)
	grant := p.node.fabric.GrantAddress(p.now)
	had, supplied := p.snoopPeers(addr, write)
	src := bus.FromMemory
	if supplied {
		src = bus.FromPeer
	}
	done := p.node.fabric.FillLine(grant, lineAddr, src)

	state := cache.Exclusive
	if write {
		state = cache.Modified
	} else if had {
		state = cache.Shared
	}
	p.installLine(addr, state, done)
	p.fillL1(addr, state)

	if write {
		return l1Hit + p.pushStore(done) // store-buffered unless the ring is full
	}
	return p.l2Hit + walk + p.clock.ToCycles(done-p.now)
}

// ReadHitRun commits k rounds of a read of a then a read of b, each
// round followed by AdvanceCycles(cycles), when every round would hit the
// TLB and L1 ways the predictor names: the caches change exactly as under
// 2k Access calls and local time moves by k times CyclesF(cycles). A
// kernel passes the cost of one round of two L1 hits. It is exact only
// while no other processor runs, since a peer's snoop could take one of
// the lines between rounds. If any predicted way misses, it reports false
// and changes nothing.
func (p *Proc) ReadHitRun(a, b uint64, k int, cycles float64) bool {
	if !p.tlb.PredictsHit(a) || !p.tlb.PredictsHit(b) || !p.l1.ReadHitPairs(a, b, k) {
		return false
	}
	p.tlb.ReadHitPairs(a, b, k)
	p.now += sim.Time(k) * p.clock.CyclesF(cycles)
	return true
}

// pushStore records a fabric-bound store's completion in the store
// buffer. It returns the stall in core cycles the store causes: zero
// while the buffer has room, the wait for the oldest entry otherwise.
func (p *Proc) pushStore(done sim.Time) int64 {
	var stall int64
	if oldest := p.storeRing[p.storePos]; oldest > p.now {
		stall = p.clock.ToCycles(oldest - p.now)
	}
	p.storeRing[p.storePos] = done
	p.storePos = (p.storePos + 1) % storeBufferDepth
	return stall
}

// installLine fills the L2 with the newly obtained line, writing back the
// dirty victim and back-invalidating the L1 copy of the victim (inclusive
// hierarchy).
func (p *Proc) installLine(addr uint64, st cache.State, at sim.Time) {
	lineBytes := uint64(p.node.cfg.L2.LineBytes)
	v := p.l2.Fill(addr, st)
	if !v.Valid {
		return
	}
	victimByte := v.LineAddr * lineBytes
	// Inclusive hierarchy: the L1 copy of the evicted line must go too.
	// A dirty L1 copy folds into the victim writeback.
	r1 := p.l1.Snoop(victimByte, true)
	if v.Dirty || r1.Supplied {
		p.node.fabric.WritebackLine(at, v.LineAddr)
	}
}

// fillL1 installs the line into the L1 in state st after an L2 hit or
// fill: Modified for a write, the L2's Shared or Exclusive for a read.
// A dirty L1 victim is merged into the L2 (no bus traffic).
func (p *Proc) fillL1(addr uint64, st cache.State) {
	v := p.l1.Fill(addr, st)
	if v.Valid && v.Dirty {
		victimByte := v.LineAddr * uint64(p.node.cfg.L1D.LineBytes)
		if p.l2.Lookup(victimByte).Valid() {
			p.l2.Fill(victimByte, cache.Modified)
		}
	}
}

// Kernel is a workload stream bound to one processor. Step advances the
// kernel by one convenient chunk (for example one inner-loop pass),
// updating the Proc's local time; it returns false when the kernel has
// finished.
type Kernel interface {
	Step() bool
	Proc() *Proc
}

// RunParallel interleaves kernels in local-time order until all finish:
// the kernel whose processor has the lowest local time steps next, so
// shared-resource contention is resolved in near-causal order. It returns
// the latest local time (the parallel makespan).
func RunParallel(kernels ...Kernel) sim.Time {
	if len(kernels) == 1 {
		k := kernels[0]
		for k.Step() {
		}
		return k.Proc().Now()
	}
	active := make([]Kernel, 0, len(kernels))
	active = append(active, kernels...)
	for len(active) > 0 {
		// Pick the stream with minimum local time.
		min := 0
		for i := 1; i < len(active); i++ {
			if active[i].Proc().Now() < active[min].Proc().Now() {
				min = i
			}
		}
		if !active[min].Step() {
			active = append(active[:min], active[min+1:]...)
		}
	}
	var makespan sim.Time
	for _, k := range kernels {
		if t := k.Proc().Now(); t > makespan {
			makespan = t
		}
	}
	return makespan
}
