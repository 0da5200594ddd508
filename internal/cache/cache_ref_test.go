package cache

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// refCache is the straightforward array-of-structs cache: one record per
// way, a linear scan per lookup and a separate victim search. It is the
// oracle the struct-of-arrays Cache, its way predictor and its miss memo
// are checked against.
type refCache struct {
	lineShift uint
	setMask   uint64
	assoc     int
	lines     []refLine
	clock     uint64
	stats     Stats
}

type refLine struct {
	tag     uint64
	state   State
	lastUse uint64
}

func newRef(cfg Config) *refCache {
	sets := cfg.Sets()
	return &refCache{
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:   uint64(sets - 1),
		assoc:     cfg.Assoc,
		lines:     make([]refLine, sets*cfg.Assoc),
	}
}

func (c *refCache) set(la uint64) []refLine {
	base := int(la&c.setMask) * c.assoc
	return c.lines[base : base+c.assoc]
}

func refFind(set []refLine, tag uint64) *refLine {
	for i := range set {
		if set[i].state != Invalid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

func (c *refCache) Access(addr uint64, write bool) Outcome {
	la := addr >> c.lineShift
	set := c.set(la)
	c.clock++
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	ln := refFind(set, la)
	if ln == nil {
		if write {
			c.stats.WriteMisses++
		} else {
			c.stats.ReadMisses++
		}
		return Miss
	}
	ln.lastUse = c.clock
	if !write {
		return Hit
	}
	switch ln.state {
	case Modified:
		return Hit
	case Exclusive:
		ln.state = Modified
		return Hit
	default:
		c.stats.Upgrades++
		return HitNeedsUpgrade
	}
}

func (c *refCache) CompleteUpgrade(addr uint64) {
	la := addr >> c.lineShift
	ln := refFind(c.set(la), la)
	if ln == nil {
		panic("ref: CompleteUpgrade on absent line")
	}
	ln.state = Modified
}

func (c *refCache) Fill(addr uint64, st State) Victim {
	la := addr >> c.lineShift
	set := c.set(la)
	c.clock++
	if ln := refFind(set, la); ln != nil {
		ln.state = st
		ln.lastUse = c.clock
		return Victim{}
	}
	victim := &set[0]
	for i := range set {
		if set[i].state == Invalid {
			victim = &set[i]
			break
		}
		if set[i].lastUse < victim.lastUse {
			victim = &set[i]
		}
	}
	out := Victim{}
	if victim.state != Invalid {
		out = Victim{LineAddr: victim.tag, Dirty: victim.state == Modified, Valid: true}
		c.stats.Evictions++
		if out.Dirty {
			c.stats.Writebacks++
		}
	}
	victim.tag = la
	victim.state = st
	victim.lastUse = c.clock
	return out
}

func (c *refCache) Lookup(addr uint64) State {
	la := addr >> c.lineShift
	if ln := refFind(c.set(la), la); ln != nil {
		return ln.state
	}
	return Invalid
}

func (c *refCache) Snoop(addr uint64, exclusive bool) SnoopResult {
	la := addr >> c.lineShift
	ln := refFind(c.set(la), la)
	if ln == nil {
		return SnoopResult{}
	}
	res := SnoopResult{Had: true, Supplied: ln.state == Modified}
	if exclusive {
		ln.state = Invalid
		c.stats.SnoopInvals++
		c.stats.InvalidationsReceived++
	} else {
		if res.Supplied {
			c.stats.SuppliedCacheToCache++
		}
		ln.state = Shared
		c.stats.SnoopReads++
	}
	return res
}

func (c *refCache) InvalidateAll() {
	for i := range c.lines {
		c.lines[i] = refLine{}
	}
}

func (c *refCache) Occupancy() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].state != Invalid {
			n++
		}
	}
	return n
}

// oracleGeometries are the shapes the node models use, plus a 1-byte-line
// cache whose top address collides with the Invalid-way tag.
var oracleGeometries = []struct {
	cfg Config
	// top places the address pool just below 2^64 instead of at 0.
	top bool
	// stride, if nonzero, spaces the pool's line addresses stride lines
	// apart and shrinks the pool to match, so a cache with many sets sees
	// set conflicts and way-predictor entries shared across sets.
	stride uint64
	// seeds, if nonzero, caps the seed count: every Occupancy comparison
	// costs a pass over all of a large cache's ways.
	seeds int
}{
	{cfg: Config{Name: "direct", SizeBytes: 16 * 64, LineBytes: 64, Assoc: 1}},
	{cfg: Config{Name: "L1-8way", SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8}},
	{cfg: Config{Name: "PM-DTLB", SizeBytes: 64 * 4096, LineBytes: 4096, Assoc: 2}},
	{cfg: Config{Name: "PII-DTLB", SizeBytes: 64 * 4096, LineBytes: 4096, Assoc: 4}},
	{cfg: Config{Name: "PII-L2", SizeBytes: 512 << 10, LineBytes: 32, Assoc: 4}, stride: 256, seeds: 4},
	{cfg: Config{Name: "SUN-DTLB", SizeBytes: 64 * 4096, LineBytes: 4096, Assoc: 64}},
	{cfg: Config{Name: "byte-lines", SizeBytes: 8, LineBytes: 1, Assoc: 2}, top: true},
}

// oracle drives one seeded operation sequence through a Cache and the
// reference, failing on the first divergent return value, Stats or
// Occupancy.
type oracle struct {
	t      *testing.T
	rng    *rand.Rand
	c      *Cache
	ref    *refCache
	lines  uint64 // line addresses are drawn from [0, lines), times stride
	stride uint64
	top    bool
	last   uint64
	step   int
	trace  []string
	prefix string
}

func (o *oracle) addr() uint64 {
	var la uint64
	if o.rng.Intn(3) == 0 {
		la = (o.last + uint64(o.rng.Intn(5))) % o.lines // nearby: hits
	} else {
		la = uint64(o.rng.Int63n(int64(o.lines)))
	}
	o.last = la
	a := la*o.stride<<o.c.lineShift | uint64(o.rng.Intn(o.c.cfg.LineBytes))
	if o.top {
		return ^uint64(0) - a
	}
	return a
}

func (o *oracle) state() State { return State(o.rng.Intn(3)) + Shared }

// check records the operation and compares the two caches after it.
func (o *oracle) check(op string, got, want any) {
	o.t.Helper()
	o.step++
	o.trace = append(o.trace, op)
	if len(o.trace) > 8 {
		o.trace = o.trace[1:]
	}
	fail := func(what string, g, w any) {
		o.t.Helper()
		o.t.Fatalf("%s step %d: %s: got %v, want %v\nlast ops: %v", o.prefix, o.step, what, g, w, o.trace)
	}
	if got != want {
		fail(op, got, want)
	}
	if g, w := o.c.Stats(), o.ref.stats; g != w {
		fail("Stats after "+op, g, w)
	}
	if g, w := occupancy(o.c), o.ref.Occupancy(); g != w {
		fail("Occupancy after "+op, g, w)
	}
	if g, w := o.c.clock, o.ref.clock; g != w {
		fail("clock after "+op, g, w)
	}
	var resident [hintSize]int32
	for i, u := range o.c.lastUse {
		if u != 0 {
			resident[o.c.tags[i]%hintSize]++
		}
	}
	if resident != o.c.resident {
		fail("resident counts after "+op, o.c.resident, resident)
	}
}

// readHit is the node's probe: a true ReadHit must be the reference's read
// hit, and a false one must leave the cache as the untouched reference.
// PredictsHit must foretell it.
func (o *oracle) readHit(a uint64) bool {
	o.t.Helper()
	op := fmt.Sprintf("ReadHit(%#x)", a)
	predicted := o.c.PredictsHit(a)
	hit := o.c.ReadHit(a)
	if predicted != hit {
		o.t.Fatalf("%s step %d: PredictsHit(%#x) = %v before ReadHit = %v", o.prefix, o.step, a, predicted, hit)
	}
	if hit {
		o.check(op, Hit, o.ref.Access(a, false))
		return true
	}
	o.check(op, o.c.Lookup(a), o.ref.Lookup(a))
	return false
}

// readHitPairs is the node's same-line hit run: a true ReadHitPairs must
// be k rounds of reference read hits of a then b, leaving both lines with
// the reference's lastUse, so the next victim is the reference's; a false
// one must leave the cache as the untouched reference, and only when a
// probe of a or b would fail. A Fill into a's set then compares the
// victim.
func (o *oracle) readHitPairs(a, b uint64, k int) {
	o.t.Helper()
	op := fmt.Sprintf("ReadHitPairs(%#x,%#x,%d)", a, b, k)
	both := o.c.PredictsHit(a) && o.c.PredictsHit(b)
	if !o.c.ReadHitPairs(a, b, k) {
		if both && k > 0 {
			o.t.Fatalf("%s step %d: %s = false with both ways predicted", o.prefix, o.step, op)
		}
		o.check(op, o.c.Lookup(b), o.ref.Lookup(b))
		return
	}
	for r := 0; r < k; r++ {
		if o.ref.Access(a, false) != Hit || o.ref.Access(b, false) != Hit {
			o.t.Fatalf("%s step %d: %s = true but the reference missed in round %d", o.prefix, o.step, op, r)
		}
	}
	o.check(op, o.age(a), o.ref.age(a))
	o.check(op+" age of b", o.age(b), o.ref.age(b))
	if o.rng.Intn(2) == 0 {
		o.fill(o.conflict(a), o.state())
	}
}

// age is the lastUse of the line holding addr, or 0.
func (o *oracle) age(addr uint64) uint64 {
	if i := o.c.find(o.c.LineAddr(addr)); i >= 0 {
		return o.c.lastUse[i]
	}
	return 0
}

func (c *refCache) age(addr uint64) uint64 {
	la := addr >> c.lineShift
	if ln := refFind(c.set(la), la); ln != nil {
		return ln.lastUse
	}
	return 0
}

// conflict returns an address in addr's set whose line is absent, so a
// Fill of it evicts the set's first minimum of lastUse once it is full.
func (o *oracle) conflict(addr uint64) uint64 {
	la, sets := o.c.LineAddr(addr), o.c.setMask+1
	for x := uint64(1); ; x++ {
		if b := (la + x*sets) << o.c.lineShift; o.c.Lookup(b) == Invalid {
			return b
		}
	}
}

// translate is the node's TLB lookup: a probe, else an Access whose miss
// the Fill of the walked translation follows.
func (o *oracle) translate(a uint64) {
	o.t.Helper()
	if !o.readHit(a) && o.access(a, false) == Miss {
		o.fill(a, Exclusive)
	}
}

func (o *oracle) access(a uint64, write bool) Outcome {
	o.t.Helper()
	got, want := o.c.Access(a, write), o.ref.Access(a, write)
	o.check(fmt.Sprintf("Access(%#x,%v)", a, write), got, want)
	if got == HitNeedsUpgrade && o.rng.Intn(4) != 0 {
		o.c.CompleteUpgrade(a)
		o.ref.CompleteUpgrade(a)
		o.check(fmt.Sprintf("CompleteUpgrade(%#x)", a), nil, nil)
	}
	return got
}

func (o *oracle) fill(a uint64, st State) {
	o.t.Helper()
	o.check(fmt.Sprintf("Fill(%#x,%v)", a, st), o.c.Fill(a, st), o.ref.Fill(a, st))
}

func (o *oracle) snoop(a uint64, exclusive bool) {
	o.t.Helper()
	o.check(fmt.Sprintf("Snoop(%#x,%v)", a, exclusive), o.c.Snoop(a, exclusive), o.ref.Snoop(a, exclusive))
}

func (o *oracle) run(ops int) {
	o.t.Helper()
	for o.step < ops {
		a := o.addr()
		switch k := o.rng.Intn(100); {
		case k < 22:
			o.access(a, o.rng.Intn(3) == 0)
		case k < 27:
			if !o.readHit(a) {
				o.access(a, false)
			}
		case k < 30:
			// A same-line hit run of a and a nearby line b, or of a alone.
			b := a
			if o.rng.Intn(4) != 0 {
				b = o.addr()
			}
			o.readHitPairs(a, b, o.rng.Intn(9))
		case k < 50:
			// The node's miss path: Access misses, then Fill installs it.
			if o.access(a, o.rng.Intn(3) == 0) == Miss {
				o.fill(a, o.state())
			}
		case k < 62:
			// A miss, an intervening snoop or fill, then the Fill the
			// miss memo may shortcut.
			if o.access(a, false) == Miss {
				b := o.addr()
				switch o.rng.Intn(4) {
				case 0:
					o.snoop(b, o.rng.Intn(2) == 0)
				case 1:
					o.snoop(a, o.rng.Intn(2) == 0)
				case 2:
					o.fill(b, o.state())
				default:
					o.fill(b, o.state())
					o.fill(a, o.state())
				}
				o.fill(a, o.state())
			}
		case k < 75:
			o.fill(a, o.state())
		case k < 83:
			o.snoop(a, false)
		case k < 91:
			o.snoop(a, true)
		case k < 98:
			o.check(fmt.Sprintf("Lookup(%#x)", a), o.c.Lookup(a), o.ref.Lookup(a))
		case k < 99:
			o.c.InvalidateAll()
			o.ref.InvalidateAll()
			o.check("InvalidateAll", nil, nil)
		default:
			o.c.ResetStats()
			o.ref.stats = Stats{}
			o.check("ResetStats", nil, nil)
		}
	}
}

// TestCacheMatchesReference checks the struct-of-arrays cache against the
// array-of-structs reference over seeded random operation sequences on
// every geometry the node models use.
func TestCacheMatchesReference(t *testing.T) {
	seeds, ops := 40, 3000
	if testing.Short() {
		seeds = 8
	}
	for _, g := range oracleGeometries {
		t.Run(g.cfg.Name, func(t *testing.T) {
			stride, n := max(g.stride, 1), seeds
			if g.seeds > 0 {
				n = min(n, g.seeds)
			}
			for seed := int64(1); seed <= int64(n); seed++ {
				o := newOracle(t, g.cfg, seed)
				o.lines = 2 * uint64(g.cfg.SizeBytes/g.cfg.LineBytes) / stride
				o.stride, o.top = stride, g.top
				o.run(ops)
			}
		})
	}
}

func newOracle(t *testing.T, cfg Config, seed int64) *oracle {
	return &oracle{
		t:      t,
		rng:    rand.New(rand.NewSource(seed)),
		c:      New(cfg),
		ref:    newRef(cfg),
		prefix: fmt.Sprintf("seed %d", seed),
	}
}

// TestCacheMatchesReferenceOnPageThrash checks the miss path of the TLB
// geometries against the reference on the naive MatMult column sweep: a
// cyclic walk over more pages than the TLB holds, so nearly every
// translation misses and evicts the LRU page. Re-touches of just-used and
// soon-needed pages move queued ways, and same-line hit runs move two at
// once. The first seeds free ways between misses often, with snoop
// invalidations and InvalidateAll; the calm seeds after them walk long
// enough to use up the whole victim queue of the 64-way set, and
// snoop-invalidate one page every two to three cycles of the walk, in the
// middle of a queue.
func TestCacheMatchesReferenceOnPageThrash(t *testing.T) {
	seeds, calmSeeds, ops := 12, 12, 4000
	if testing.Short() {
		seeds, calmSeeds = 3, 2
	}
	for _, g := range oracleGeometries {
		if g.cfg.Name != "SUN-DTLB" && g.cfg.Name != "PII-DTLB" {
			continue
		}
		t.Run(g.cfg.Name, func(t *testing.T) {
			entries := uint64(g.cfg.SizeBytes / g.cfg.LineBytes)
			usedUp := false
			walk := func(seed int64, calm bool) {
				o := newOracle(t, g.cfg, seed)
				pages := entries + 1 + uint64(o.rng.Intn(int(entries)))
				page := func(p uint64) uint64 {
					return p%pages<<o.c.lineShift | uint64(o.rng.Intn(g.cfg.LineBytes))
				}
				period := 2*pages + uint64(o.rng.Intn(int(pages)))
				for cur := uint64(0); o.step < ops; cur++ {
					o.translate(page(cur))
					if calm {
						usedUp = usedUp || len(o.c.queue) > 0 && o.c.queueHead == len(o.c.queue)-1
						if cur%period == period/2 {
							o.snoop(page(cur+uint64(o.rng.Intn(int(pages)))), true) // mid-queue
						}
					}
					switch k := o.rng.Intn(100); {
					case k < 10:
						o.translate(page(cur + pages - uint64(o.rng.Intn(8)))) // just used
					case k < 20:
						o.translate(page(cur + 1 + uint64(o.rng.Intn(8)))) // oldest
					case k < 25:
						// A hit run on the page just walked and a recent one.
						o.readHitPairs(page(cur), page(cur+pages-uint64(o.rng.Intn(4))), 1+o.rng.Intn(8))
					case calm:
					case k < 28:
						o.snoop(page(cur+uint64(o.rng.Intn(int(pages)))), true)
					case k < 29:
						o.c.InvalidateAll()
						o.ref.InvalidateAll()
						o.check("InvalidateAll", nil, nil)
					}
				}
			}
			for seed := int64(1); seed <= int64(seeds); seed++ {
				walk(seed, false)
			}
			for seed := int64(13); seed < int64(13+calmSeeds); seed++ {
				walk(seed, true)
			}
			if g.cfg.Assoc >= wideAssoc && !usedUp {
				t.Error("no calm walk used up the victim queue")
			}
		})
	}
}
