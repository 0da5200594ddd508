package cpu

import "fmt"

// CostModel memoizes the steady-state per-iteration cost of a template on
// a core for homogeneous memory-latency tuples.
//
// Kernels with billions of iterations (MatMult at large N) cannot afford a
// scoreboard pass per iteration. But within a kernel the latency tuple of
// an iteration takes only a handful of distinct values (L1 hit, L2 hit,
// memory, memory-with-contention buckets), and for a loop whose iterations
// all see the same tuple the scoreboard reaches a steady state after a few
// iterations. CostModel runs the scoreboard once per distinct tuple —
// warming it up and measuring the per-iteration increment — and serves
// every later iteration from the memo. Cross-tuple pipeline overlap is the
// one effect this approximation drops; it is second-order for the paper's
// kernels, whose miss patterns come in long homogeneous runs.
type CostModel struct {
	cfg  *Config
	tmpl *Template
	memo map[uint64]float64
	// small is the fast path for two-slot tuples with latencies under 256
	// cycles (the overwhelmingly common case), indexed by lat>>2 of each
	// slot. An entry keeps the first tuple that lands on it; a different
	// tuple on a taken entry falls through to memo.
	small []smallEntry
	// lastKey/lastCost fast-path long runs of identical tuples.
	lastKey  uint64
	lastCost float64
	hasLast  bool
}

const (
	costWarmup  = 48
	costMeasure = 48
	// maxMemSlots bounds the tuple so it packs into a uint64 memo key.
	maxMemSlots = 4
	// latQuantum buckets contended latencies so the memo stays small.
	latQuantum = 4
)

// smallEntry is one tagged slot of CostModel.small: tag is
// 1<<16 | lat0<<8 | lat1 for the tuple whose cost it holds, 0 if unset.
type smallEntry struct {
	tag  uint32
	cost float64
}

// NewCostModel builds a memoizing cost model. It panics if the template
// has more than four memory slots (pack limit) or fails validation.
func NewCostModel(cfg *Config, tmpl *Template) *CostModel {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if err := tmpl.Validate(); err != nil {
		panic(err)
	}
	if tmpl.MemSlots() > maxMemSlots {
		panic(fmt.Sprintf("cpu: template %q has %d memory slots, max %d", tmpl.Name, tmpl.MemSlots(), maxMemSlots))
	}
	return &CostModel{cfg: cfg, tmpl: tmpl, memo: make(map[uint64]float64), small: make([]smallEntry, 1<<12)}
}

// Quantize buckets a latency to the memo quantum, preserving the L1-hit
// latency exactly so hits are never confused with near-hits. Every
// quantized latency above the hit is a multiple of latQuantum, so two
// quantized tuples never share an entry of the small table.
func (m *CostModel) Quantize(lat int64) int64 {
	hit := int64(m.cfg.Timing[Load].Latency)
	if lat <= hit {
		return hit
	}
	q := (lat + latQuantum - 1) / latQuantum * latQuantum
	return q
}

func packKey(memLat []int64) uint64 {
	var k uint64
	for _, l := range memLat {
		if l < 0 {
			l = 0
		}
		if l > 0xFFFF {
			l = 0xFFFF
		}
		k = k<<16 | uint64(l)
	}
	return k
}

// CyclesPerIter returns the steady-state cycles per iteration for the
// given (already quantized, or exact) memory-latency tuple.
func (m *CostModel) CyclesPerIter(memLat []int64) float64 {
	// Table fast path: two slots, both latencies under 256 cycles.
	if len(memLat) == 2 &&
		memLat[0] >= 0 && memLat[0] < 256 && memLat[1] >= 0 && memLat[1] < 256 {
		e := &m.small[memLat[0]>>2<<6|memLat[1]>>2]
		tag := uint32(1<<16 | memLat[0]<<8 | memLat[1])
		if e.tag == tag {
			return e.cost
		}
		if e.tag == 0 {
			e.tag, e.cost = tag, m.compute(memLat)
			return e.cost
		}
	}
	key := packKey(memLat)
	if m.hasLast && key == m.lastKey {
		return m.lastCost
	}
	if c, ok := m.memo[key]; ok {
		m.lastKey, m.lastCost, m.hasLast = key, c, true
		return c
	}
	c := m.compute(memLat)
	m.memo[key] = c
	m.lastKey, m.lastCost, m.hasLast = key, c, true
	return c
}

// compute measures the steady-state per-iteration cost with a fresh
// scoreboard.
func (m *CostModel) compute(memLat []int64) float64 {
	r := NewRunner(m.cfg, m.tmpl)
	for i := 0; i < costWarmup; i++ {
		r.Iterate(memLat)
	}
	before := r.Cycles()
	for i := 0; i < costMeasure; i++ {
		r.Iterate(memLat)
	}
	return float64(r.Cycles()-before) / costMeasure
}
