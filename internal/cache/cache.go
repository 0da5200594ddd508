// Package cache models set-associative write-back caches with MESI
// coherence state, as implemented by the PowerPC MPC620 (separate 32 KB
// on-chip instruction and data caches, 64-byte lines, full MESI with
// snooping — Section 2 of the paper) and by the per-processor 2 MB
// second-level caches of the PowerMANNA node.
//
// The package is the state-keeping half of the coherence protocol: it
// tracks tags, MESI states and LRU, and classifies accesses. The protocol's
// bus half — who gets the address phase, where fills come from, when
// cache-to-cache transfers happen — lives with the node fabric models in
// internal/bus and internal/node, because that is a property of the
// machine, not of the cache ASIC.
package cache

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// State is a MESI coherence state.
type State uint8

// The four MESI states. The zero value is Invalid so fresh lines need no
// initialization.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String renders the MESI state as its single-letter name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Valid reports whether the state holds data.
func (s State) Valid() bool { return s != Invalid }

// Config describes one cache.
type Config struct {
	// Name labels the cache in stats output, e.g. "L1D" or "L2".
	Name string
	// SizeBytes is total capacity. Must be Assoc*LineBytes*powerOfTwo sets.
	SizeBytes int
	// LineBytes is the line length — 64 for the MPC620/PowerMANNA, 32 for
	// the UltraSPARC-I and Pentium II (Table 1). Must be a power of two.
	LineBytes int
	// Assoc is the set associativity.
	Assoc int
	// HitCycles is the load-use latency of a hit, in cycles of the owning
	// clock domain. The cache itself does no time arithmetic; the CPU and
	// node models convert.
	HitCycles int
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0:
		return fmt.Errorf("cache %q: non-positive geometry %d/%d/%d", c.Name, c.SizeBytes, c.LineBytes, c.Assoc)
	case bits.OnesCount(uint(c.LineBytes)) != 1:
		return fmt.Errorf("cache %q: LineBytes %d not a power of two", c.Name, c.LineBytes)
	case c.SizeBytes%(c.LineBytes*c.Assoc) != 0:
		return fmt.Errorf("cache %q: size %d not divisible by assoc*line %d", c.Name, c.SizeBytes, c.LineBytes*c.Assoc)
	case bits.OnesCount(uint(c.SizeBytes/(c.LineBytes*c.Assoc))) != 1:
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, c.SizeBytes/(c.LineBytes*c.Assoc))
	case c.HitCycles < 0:
		return fmt.Errorf("cache %q: negative HitCycles", c.Name)
	}
	return nil
}

// Sets reports the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Assoc) }

// Stats counts cache events. All counters are cumulative since the last
// Reset.
type Stats struct {
	Reads, Writes           int64 // accesses by kind
	ReadMisses, WriteMisses int64
	Upgrades                int64 // write hits on Shared needing bus upgrade
	Writebacks              int64 // dirty evictions
	Evictions               int64 // all evictions of valid lines
	SnoopReads, SnoopInvals int64 // snoops that found the line
	SuppliedCacheToCache    int64 // snooped reads answered from Modified
	InvalidationsReceived   int64 // lines killed by remote writes
}

// HitRate reports combined read+write hit rate; 0 if no accesses.
func (s Stats) HitRate() float64 {
	total := s.Reads + s.Writes
	if total == 0 {
		return 0
	}
	return 1 - float64(s.ReadMisses+s.WriteMisses)/float64(total)
}

// noTag is the tag of every Invalid way. A line address can equal it only
// in a cache of 1-byte lines, so a tag match on noTag is confirmed against
// lastUse before it counts.
const noTag = ^uint64(0)

// hintSize is the number of way-predictor entries, indexed by the low bits
// of the line address (its residue). It is wider than the PowerMANNA L1's
// 64 sets, so streams sharing a set keep separate entries, and than the 79
// pages the naive N=201 MatMult column sweep touches on the SUN's 64-way
// DTLB.
const hintSize = 1024

// A cache whose sets have at least wideAssoc ways keeps a victim queue
// (see lru).
const wideAssoc = 16

// queued is a victim-queue entry: a way and its lastUse when the queue was
// built.
type queued struct {
	use uint64
	way int32
}

// older orders victim-queue entries by lastUse, then way index.
func older(a, b queued) int {
	if a.use != b.use {
		return cmp.Compare(a.use, b.use)
	}
	return cmp.Compare(a.way, b.way)
}

// Cache is one cache instance.
//
// Ways are stored struct-of-arrays, set-major: way w of set s is index
// s*assoc+w of tags, states and lastUse. An Invalid way has tag noTag and
// lastUse 0, and a valid way has lastUse > 0 (the clock ticks before every
// use), so a lookup compares one word per way and the Fill victim is the
// first minimum of lastUse: the first Invalid way, else the LRU way.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	assoc     int
	tags      []uint64
	states    []State
	lastUse   []uint64
	// hint predicts the way holding a line. A prediction counts only after
	// its tag checks, and a valid tag is held by at most one way, so a
	// wrong or stale hint costs a scan, never a different outcome.
	hint [hintSize]int32
	// resident counts the valid lines of each residue. A zero count proves
	// a line absent without a look at its set.
	resident [hintSize]int32
	// queue holds every way of set queueSet (-1 before the first victim
	// search), oldest first, with its lastUse at the set's last sort; the
	// entries before queueHead have moved since. Only wide caches keep
	// one; invalidate empties it.
	queue     []queued
	queueHead int
	queueSet  int
	// missed is the line Access last reported missing, at clock missedAt,
	// and victim the way its scan found Fill would evict. Only Fill
	// installs lines, so the next Fill of it may skip its own lookup; if
	// the clock has not ticked since, no lastUse has moved and victim
	// still holds. Every Fill and every invalidate clears missed.
	missed   uint64
	missedAt uint64
	victim   int
	clock    uint64
	stats    Stats
}

// New builds a cache. It panics on invalid configuration.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	c := &Cache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:   uint64(sets - 1),
		assoc:     cfg.Assoc,
		tags:      make([]uint64, sets*cfg.Assoc),
		states:    make([]State, sets*cfg.Assoc),
		lastUse:   make([]uint64, sets*cfg.Assoc),
		missed:    noTag,
	}
	if cfg.Assoc >= wideAssoc {
		c.queue, c.queueSet = make([]queued, cfg.Assoc), -1
	}
	c.InvalidateAll()
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the accumulated counters.
func (c *Cache) Stats() Stats { return c.stats }

// LineAddr maps a byte address to its line address (tag granularity).
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineShift }

// setBase is the index of way 0 of lineAddr's set.
func (c *Cache) setBase(lineAddr uint64) int { return int(lineAddr&c.setMask) * c.assoc }

// holds reports whether way i holds the valid line la.
func (c *Cache) holds(i int, la uint64) bool {
	return c.tags[i] == la && (la != noTag || c.lastUse[i] != 0)
}

// predict returns the way to try first for la: the only way of a
// direct-mapped cache, else the way-predictor entry.
func (c *Cache) predict(la uint64) int {
	if c.assoc == 1 {
		return int(la & c.setMask)
	}
	return int(c.hint[la%hintSize])
}

// find returns the index of the way holding the valid line la, or -1.
func (c *Cache) find(la uint64) int {
	if i := c.predict(la); c.holds(i, la) {
		return i
	}
	i, _ := c.scan(la)
	return i
}

// scan searches la's set way by way. It returns the way holding la,
// retraining the predictor, or -1 and the way Fill would evict (see lru).
// A residue with no resident line skips the search.
func (c *Cache) scan(la uint64) (way, victim int) {
	base := c.setBase(la)
	if c.resident[la%hintSize] != 0 {
		tags := c.tags[base : base+c.assoc]
		for w, t := range tags {
			if t == la && (la != noTag || c.lastUse[base+w] != 0) {
				c.hint[la%hintSize] = int32(base + w)
				return base + w, -1
			}
		}
	}
	return -1, c.lru(base)
}

// lru returns the first minimum of lastUse in the set at base: its first
// Invalid way, else its LRU way.
//
// A full scan of a wide set sorts all its ways by lastUse and then index,
// with their lastUse, into the queue. lastUse only grows until invalidate
// empties the queue, so a way whose lastUse has moved since is newer than
// every way whose lastUse has not, and at a later call for the same set
// the first queued way with an unchanged lastUse is still the first
// minimum. A moved way stays moved, so the head passes it once; once
// every queued way has moved, the set is sorted again. The queue of
// queueSet always holds each of its ways once, and a re-sort starts from
// the old order: ways leave the queue oldest first and are mostly
// refilled in that order, so the input is nearly sorted already.
func (c *Cache) lru(base int) int {
	uses := c.lastUse[base : base+c.assoc]
	if c.assoc < wideAssoc {
		v, oldest := 0, uses[0]
		for w, u := range uses {
			if u < oldest {
				v, oldest = w, u
			}
		}
		return base + v
	}
	if base == c.queueSet {
		for ; c.queueHead < len(c.queue); c.queueHead++ {
			if q := c.queue[c.queueHead]; c.lastUse[q.way] == q.use {
				return int(q.way)
			}
		}
		for x, q := range c.queue {
			c.queue[x].use = c.lastUse[q.way]
		}
	} else {
		for w, u := range uses {
			c.queue[w] = queued{use: u, way: int32(base + w)}
		}
	}
	slices.SortFunc(c.queue, older)
	c.queueHead, c.queueSet = 0, base
	return int(c.queue[0].way)
}

// invalidate empties way i. A freed way may be an earlier first minimum
// of lastUse than the memoized victim or the queued ways, so it clears the
// miss memo and the queue.
func (c *Cache) invalidate(i int) {
	if c.lastUse[i] != 0 {
		c.resident[c.tags[i]%hintSize]--
	}
	c.tags[i] = noTag
	c.states[i] = Invalid
	c.lastUse[i] = 0
	c.missed = noTag
	c.queueHead = len(c.queue)
}

// Outcome classifies an access against the local cache.
type Outcome uint8

const (
	// Hit: the access completed locally.
	Hit Outcome = iota
	// HitNeedsUpgrade: a write hit a Shared line; the caller must win a
	// bus address phase (invalidating other copies) before the line can
	// become Modified. Call CompleteUpgrade afterwards.
	HitNeedsUpgrade
	// Miss: the line is not present; the caller must obtain it (from the
	// next level or a peer cache) and call Fill.
	Miss
)

// String names the lookup outcome for traces and stats.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case HitNeedsUpgrade:
		return "hit-upgrade"
	case Miss:
		return "miss"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// ReadHit completes a read of addr if the predicted way (predict: the
// only way of a direct-mapped cache, else the way predictor's way) holds
// its line, exactly as Access would: it ticks the clock, marks the way
// used and counts the read. Otherwise it reports false and changes
// nothing, and the caller falls back to Access. It is small enough to
// inline, so a caller's common case, a read hit, costs no call.
func (c *Cache) ReadHit(addr uint64) bool {
	la := addr >> c.lineShift
	i := c.predict(la)
	// An Invalid way is tagged noTag, so the guard keeps it from matching.
	if c.tags[i] != la || la == noTag {
		return false
	}
	c.clock++
	c.lastUse[i] = c.clock
	c.stats.Reads++
	return true
}

// PredictsHit reports whether ReadHit(addr) would hit, changing nothing.
func (c *Cache) PredictsHit(addr uint64) bool {
	la := addr >> c.lineShift
	return c.tags[c.predict(la)] == la && la != noTag
}

// ReadHitPairs completes k rounds of a read of a followed by a read of b
// exactly as 2k ReadHit calls would, if k > 0 and the predicted ways hold
// both lines: a hit leaves the tags, states and predictor as they are, so
// every round hits the same two ways. The clock moves by 2k, each way's
// lastUse becomes the tick of its last read, and Reads grows by 2k.
// Otherwise it reports false and changes nothing.
func (c *Cache) ReadHitPairs(a, b uint64, k int) bool {
	la, lb := a>>c.lineShift, b>>c.lineShift
	i, j := c.predict(la), c.predict(lb)
	if k < 1 || c.tags[i] != la || la == noTag || c.tags[j] != lb || lb == noTag {
		return false
	}
	c.clock += 2 * uint64(k)
	c.lastUse[i] = c.clock - 1
	c.lastUse[j] = c.clock // the same way as i when a and b share a line
	c.stats.Reads += 2 * int64(k)
	return true
}

// Access classifies a read or write of addr and applies the purely local
// state transitions (E→M on write hit, LRU update, counters). A read that
// the caller has not probed with ReadHit first costs the same: Access
// tries the predicted way first too.
func (c *Cache) Access(addr uint64, write bool) Outcome {
	la := c.LineAddr(addr)
	c.clock++
	i := c.predict(la)
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	if !c.holds(i, la) {
		var victim int
		if i, victim = c.scan(la); i < 0 {
			if write {
				c.stats.WriteMisses++
			} else {
				c.stats.ReadMisses++
			}
			c.missed, c.missedAt, c.victim = la, c.clock, victim
			return Miss
		}
	}
	c.lastUse[i] = c.clock
	if !write {
		return Hit
	}
	switch c.states[i] {
	case Modified:
		return Hit
	case Exclusive:
		c.states[i] = Modified // silent upgrade, no bus traffic
		return Hit
	default: // Shared
		c.stats.Upgrades++
		return HitNeedsUpgrade
	}
}

// CompleteUpgrade marks a Shared line Modified after the caller has won
// the invalidating bus phase. It panics if the line is not present: that
// would mean the protocol lost the line between Access and the bus grant,
// which the node models (atomic bus phases) never allow.
func (c *Cache) CompleteUpgrade(addr uint64) {
	la := c.LineAddr(addr)
	i := c.find(la)
	if i < 0 {
		panic(fmt.Sprintf("cache %s: CompleteUpgrade on absent line %#x", c.cfg.Name, la))
	}
	c.states[i] = Modified
}

// Victim describes an eviction produced by Fill.
type Victim struct {
	LineAddr uint64
	Dirty    bool // Modified: must be written back
	Valid    bool // false when an Invalid way was used
}

// Fill installs the line containing addr with the given state, evicting
// the LRU way if the set is full. The caller decides the fill state from
// the bus transaction (Exclusive for an unshared read fill, Shared when a
// peer holds it, Modified for a write fill).
func (c *Cache) Fill(addr uint64, st State) Victim {
	if st == Invalid {
		panic(fmt.Sprintf("cache %s: Fill with Invalid state", c.cfg.Name))
	}
	la := c.LineAddr(addr)
	// A line Access reported missing at this clock tick needs no lookup,
	// and the victim its scan found still holds. missed holds noTag when
	// there is none.
	i := c.victim
	memo := la == c.missed && la != noTag && c.clock == c.missedAt
	c.missed = noTag
	c.clock++
	if !memo {
		w := c.predict(la)
		if !c.holds(w, la) {
			w, i = c.scan(la)
		}
		if w >= 0 {
			// Refill of a present line (e.g. upgrade-with-data); just update.
			c.states[w] = st
			c.lastUse[w] = c.clock
			return Victim{}
		}
	}
	out := Victim{}
	if c.lastUse[i] != 0 {
		out = Victim{LineAddr: c.tags[i], Dirty: c.states[i] == Modified, Valid: true}
		c.stats.Evictions++
		if out.Dirty {
			c.stats.Writebacks++
		}
		c.resident[out.LineAddr%hintSize]--
	}
	c.resident[la%hintSize]++
	c.tags[i] = la
	c.states[i] = st
	c.lastUse[i] = c.clock
	c.hint[la%hintSize] = int32(i)
	return out
}

// Lookup reports the state of the line containing addr without touching
// LRU or counters. Used by snoop logic and tests.
func (c *Cache) Lookup(addr uint64) State {
	if i := c.find(c.LineAddr(addr)); i >= 0 {
		return c.states[i]
	}
	return Invalid
}

// SnoopResult describes what a snooped cache contributed.
type SnoopResult struct {
	Had      bool // line was present
	Supplied bool // line was Modified: this cache supplies the data
}

// Snoop applies a remote bus transaction to this cache. For a read snoop
// (exclusive=false) a Modified or Exclusive line degrades to Shared and a
// Modified line supplies the data (cache-to-cache transfer, a feature the
// MPC620 bus protocol supports directly). For a write snoop
// (exclusive=true) any copy is invalidated.
func (c *Cache) Snoop(addr uint64, exclusive bool) SnoopResult {
	i := c.find(c.LineAddr(addr))
	if i < 0 {
		return SnoopResult{}
	}
	res := SnoopResult{Had: true, Supplied: c.states[i] == Modified}
	if exclusive {
		c.invalidate(i)
		c.stats.SnoopInvals++
		c.stats.InvalidationsReceived++
	} else {
		if res.Supplied {
			c.stats.SuppliedCacheToCache++
		}
		c.states[i] = Shared
		c.stats.SnoopReads++
	}
	return res
}

// InvalidateAll clears every line (used between benchmark repetitions to
// model a cold start). Dirty data is discarded; callers that care about
// writeback traffic should drain via Fill pressure instead.
func (c *Cache) InvalidateAll() {
	for i := range c.tags {
		c.invalidate(i)
	}
}

// ResetStats zeroes the counters without touching contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Occupancy reports how many lines are currently valid.
func (c *Cache) Occupancy() int {
	n := 0
	for _, u := range c.lastUse {
		if u != 0 {
			n++
		}
	}
	return n
}
