package cpu

import (
	"testing"

	"powermanna/internal/sim"
)

// core620like builds a 4-issue core in the MPC620's image: pipelined FPU
// with fused multiply-add, two integer ALUs, and a load/store unit whose
// miss behaviour is set by missQueue (1 = blocking, as on the MPC620).
func core620like(missQueue int) *Config {
	cfg := &Config{
		Name:       "test620",
		Clock:      sim.ClockMHz(180),
		IssueWidth: 4,
		MissQueue:  missQueue,
		HasFMA:     true,
	}
	cfg.Units[UnitIntALU] = 2
	cfg.Units[UnitIntMul] = 1
	cfg.Units[UnitFPU] = 1
	cfg.Units[UnitLS] = 1
	cfg.Units[UnitBranch] = 1
	cfg.Timing[IntALU] = OpTiming{Unit: UnitIntALU, Latency: 1, Pipelined: true}
	cfg.Timing[IntMul] = OpTiming{Unit: UnitIntMul, Latency: 4, Pipelined: true}
	cfg.Timing[IntDiv] = OpTiming{Unit: UnitIntMul, Latency: 20, Pipelined: false}
	cfg.Timing[FPAdd] = OpTiming{Unit: UnitFPU, Latency: 3, Pipelined: true}
	cfg.Timing[FPMul] = OpTiming{Unit: UnitFPU, Latency: 3, Pipelined: true}
	cfg.Timing[FPMAdd] = OpTiming{Unit: UnitFPU, Latency: 3, Pipelined: true}
	cfg.Timing[FPDiv] = OpTiming{Unit: UnitFPU, Latency: 18, Pipelined: false}
	cfg.Timing[Load] = OpTiming{Unit: UnitLS, Latency: 2, Pipelined: true}
	cfg.Timing[Store] = OpTiming{Unit: UnitLS, Latency: 1, Pipelined: true}
	cfg.Timing[Branch] = OpTiming{Unit: UnitBranch, Latency: 1, Pipelined: true}
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := core620like(1).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	c := core620like(1)
	c.IssueWidth = 0
	if err := c.Validate(); err == nil {
		t.Error("zero issue width accepted")
	}
	c = core620like(1)
	c.MissQueue = 0
	if err := c.Validate(); err == nil {
		t.Error("zero miss queue accepted")
	}
	c = core620like(1)
	c.Units[UnitFPU] = 0
	if err := c.Validate(); err == nil {
		t.Error("class bound to absent unit accepted")
	}
	c = core620like(1)
	c.Timing[Load].Latency = 0
	if err := c.Validate(); err == nil {
		t.Error("zero latency accepted")
	}
}

// runLoop runs iters iterations with constant memory latencies and
// returns total cycles.
func runLoop(cfg *Config, tmpl *Template, memLat []int64, iters int) int64 {
	r := NewRunner(cfg, tmpl)
	var last int64
	for i := 0; i < iters; i++ {
		last = r.Iterate(memLat)
	}
	return last
}

// entries counts the distinct latency tuples m has evaluated.
func entries(m *CostModel) int {
	n := len(m.memo)
	for _, e := range m.small {
		if e.tag != 0 {
			n++
		}
	}
	return n
}

func TestTemplateValidate(t *testing.T) {
	good := &Template{
		Name:    "ok",
		NumRegs: 2,
		Instrs: []Instr{
			{Class: Load, Src1: -1, Src2: -1, Dst: 0, MemSlot: 0},
			{Class: FPAdd, Src1: 0, Src2: 1, Dst: 1, MemSlot: -1},
		},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid template rejected: %v", err)
	}
	if good.MemSlots() != 1 {
		t.Errorf("MemSlots = %d, want 1", good.MemSlots())
	}
	bad := &Template{
		Name:    "bad",
		NumRegs: 1,
		Instrs:  []Instr{{Class: IntALU, Src1: 5, Src2: -1, Dst: 0, MemSlot: -1}},
	}
	if err := bad.Validate(); err == nil {
		t.Error("register out of range accepted")
	}
	badMem := &Template{
		Name:    "badmem",
		NumRegs: 1,
		Instrs:  []Instr{{Class: IntALU, Src1: -1, Src2: -1, Dst: 0, MemSlot: 2}},
	}
	if err := badMem.Validate(); err == nil {
		t.Error("non-memory instruction with MemSlot accepted")
	}
}

// fmaTemplate: an FMA stream with no loop-carried dependency (distinct
// accumulators) should sustain 1 FMA/cycle on a pipelined FPU.
func TestPipelinedFPUThroughput(t *testing.T) {
	tmpl := &Template{
		Name:    "fma4",
		NumRegs: 8,
		Instrs: []Instr{
			{Class: FPMAdd, Src1: 0, Src2: 1, Dst: 4, MemSlot: -1},
			{Class: FPMAdd, Src1: 0, Src2: 1, Dst: 5, MemSlot: -1},
			{Class: FPMAdd, Src1: 0, Src2: 1, Dst: 6, MemSlot: -1},
			{Class: FPMAdd, Src1: 0, Src2: 1, Dst: 7, MemSlot: -1},
		},
	}
	cycles := runLoop(core620like(1), tmpl, nil, 256)
	// 1024 FMAs on one pipelined FPU: ~1024 cycles (+pipeline fill).
	perFMA := float64(cycles) / 1024
	if perFMA < 0.99 || perFMA > 1.1 {
		t.Errorf("cycles/FMA = %g, want ~1 (pipelined FPU)", perFMA)
	}
}

// A single loop-carried accumulator serializes on the FPU latency.
func TestLoopCarriedDependency(t *testing.T) {
	tmpl := &Template{
		Name:    "acc",
		NumRegs: 2,
		Instrs:  []Instr{{Class: FPAdd, Src1: 0, Src2: 1, Dst: 0, MemSlot: -1}},
	}
	cycles := runLoop(core620like(1), tmpl, nil, 200)
	perIter := float64(cycles) / 200
	// FPAdd latency 3: the chain forces ~3 cycles/iteration.
	if perIter < 2.9 || perIter > 3.1 {
		t.Errorf("cycles/iter = %g, want ~3 (latency-bound chain)", perIter)
	}
}

// Issue width and unit count bound independent integer work.
func TestIssueAndUnitBound(t *testing.T) {
	// 8 independent single-cycle ALU ops; 2 ALUs → 4 cycles/iter.
	instrs := make([]Instr, 8)
	for i := range instrs {
		instrs[i] = Instr{Class: IntALU, Src1: -1, Src2: -1, Dst: i, MemSlot: -1}
	}
	tmpl := &Template{Name: "alu8", NumRegs: 8, Instrs: instrs}
	cycles := runLoop(core620like(1), tmpl, nil, 100)
	perIter := float64(cycles) / 100
	if perIter < 3.9 || perIter > 4.2 {
		t.Errorf("cycles/iter = %g, want ~4 (2 ALUs, 8 ops)", perIter)
	}
}

// Blocking loads (MissQueue=1) serialize misses; a deeper queue overlaps
// them. This is the paper's load-pipelining distinction.
func TestMissQueueSerializesOrOverlaps(t *testing.T) {
	tmpl := &Template{
		Name:    "ld2",
		NumRegs: 4,
		Instrs: []Instr{
			{Class: Load, Src1: -1, Src2: -1, Dst: 0, MemSlot: 0},
			{Class: Load, Src1: -1, Src2: -1, Dst: 1, MemSlot: 1},
			{Class: FPMAdd, Src1: 0, Src2: 1, Dst: 2, MemSlot: -1},
		},
	}
	miss := []int64{40, 40}
	blocking := runLoop(core620like(1), tmpl, miss, 100)
	overlapped := runLoop(core620like(8), tmpl, miss, 100)
	perBlock := float64(blocking) / 100
	perOver := float64(overlapped) / 100
	// Blocking: two serialized 40-cycle misses ≈ 80 cycles/iter.
	if perBlock < 75 || perBlock > 85 {
		t.Errorf("blocking cycles/iter = %g, want ~80", perBlock)
	}
	// Deep queue: the LS unit still pipelines, so misses from successive
	// iterations overlap; expect a large speedup.
	if perOver > perBlock/3 {
		t.Errorf("overlapped cycles/iter = %g vs blocking %g; want >3x overlap", perOver, perBlock)
	}
}

// Hits never consult the miss queue.
func TestHitsIgnoreMissQueue(t *testing.T) {
	tmpl := &Template{
		Name:    "ldhit",
		NumRegs: 2,
		Instrs:  []Instr{{Class: Load, Src1: -1, Src2: -1, Dst: 0, MemSlot: 0}},
	}
	hit := []int64{2} // == L1 hit latency
	cycles := runLoop(core620like(1), tmpl, hit, 100)
	perIter := float64(cycles) / 100
	if perIter > 1.2 {
		t.Errorf("hit loads = %g cycles/iter, want ~1 (pipelined LS)", perIter)
	}
}

// Stores never wait for the supplied latency (store buffer).
func TestStoresDoNotBlock(t *testing.T) {
	tmpl := &Template{
		Name:    "st",
		NumRegs: 1,
		Instrs:  []Instr{{Class: Store, Src1: 0, Src2: -1, Dst: -1, MemSlot: 0}},
	}
	cycles := runLoop(core620like(1), tmpl, []int64{500}, 100)
	perIter := float64(cycles) / 100
	if perIter > 1.5 {
		t.Errorf("stores = %g cycles/iter, want ~1 (buffered)", perIter)
	}
}

// In-order execution forces monotone execution starts.
func TestInOrderExec(t *testing.T) {
	tmpl := &Template{
		Name:    "mixed",
		NumRegs: 4,
		Instrs: []Instr{
			{Class: Load, Src1: -1, Src2: -1, Dst: 0, MemSlot: 0}, // miss
			{Class: IntALU, Src1: -1, Src2: -1, Dst: 1, MemSlot: -1},
			{Class: IntALU, Src1: -1, Src2: -1, Dst: 2, MemSlot: -1},
		},
	}
	ooo := core620like(4)
	ino := core620like(4)
	ino.InOrderExec = true
	miss := []int64{40}
	oooCycles := runLoop(ooo, tmpl, miss, 50)
	inoCycles := runLoop(ino, tmpl, miss, 50)
	if inoCycles < oooCycles {
		t.Errorf("in-order (%d) beat out-of-order (%d)", inoCycles, oooCycles)
	}
}

func TestRunnerResetAndCounters(t *testing.T) {
	tmpl := &Template{
		Name:    "one",
		NumRegs: 1,
		Instrs:  []Instr{{Class: IntALU, Src1: -1, Src2: -1, Dst: 0, MemSlot: -1}},
	}
	r := NewRunner(core620like(1), tmpl)
	r.Iterate(nil)
	r.Iterate(nil)
	if r.Cycles() <= 0 {
		t.Error("Cycles not advancing")
	}
}

func TestCostModelMemoizes(t *testing.T) {
	tmpl := &Template{
		Name:    "ld1",
		NumRegs: 2,
		Instrs: []Instr{
			{Class: Load, Src1: -1, Src2: -1, Dst: 0, MemSlot: 0},
			{Class: FPAdd, Src1: 0, Src2: 1, Dst: 1, MemSlot: -1},
		},
	}
	m := NewCostModel(core620like(1), tmpl)
	c1 := m.CyclesPerIter([]int64{2})
	c2 := m.CyclesPerIter([]int64{2})
	if c1 != c2 {
		t.Error("memoized result differs")
	}
	if entries(m) != 1 {
		t.Errorf("entries = %d, want 1", entries(m))
	}
	cMiss := m.CyclesPerIter([]int64{40})
	if cMiss <= c1 {
		t.Errorf("miss cost %g not above hit cost %g", cMiss, c1)
	}
	if entries(m) != 2 {
		t.Errorf("entries = %d, want 2", entries(m))
	}
}

func TestCostModelMatchesRunner(t *testing.T) {
	tmpl := &Template{
		Name:    "chain",
		NumRegs: 2,
		Instrs:  []Instr{{Class: FPAdd, Src1: 0, Src2: 1, Dst: 0, MemSlot: -1}},
	}
	m := NewCostModel(core620like(1), tmpl)
	per := m.CyclesPerIter(nil)
	if per < 2.9 || per > 3.1 {
		t.Errorf("steady cost = %g, want ~3", per)
	}
}

func TestQuantize(t *testing.T) {
	tmpl := &Template{
		Name:    "q",
		NumRegs: 1,
		Instrs:  []Instr{{Class: Load, Src1: -1, Src2: -1, Dst: 0, MemSlot: 0}},
	}
	m := NewCostModel(core620like(1), tmpl)
	if got := m.Quantize(1); got != 2 {
		t.Errorf("Quantize(1) = %d, want hit latency 2", got)
	}
	if got := m.Quantize(2); got != 2 {
		t.Errorf("Quantize(2) = %d, want 2", got)
	}
	if got := m.Quantize(3); got != 4 {
		t.Errorf("Quantize(3) = %d, want 4", got)
	}
	if got := m.Quantize(41); got != 44 {
		t.Errorf("Quantize(41) = %d, want 44", got)
	}
}

func TestCostModelTooManySlotsPanics(t *testing.T) {
	instrs := make([]Instr, 5)
	for i := range instrs {
		instrs[i] = Instr{Class: Load, Src1: -1, Src2: -1, Dst: 0, MemSlot: i}
	}
	tmpl := &Template{Name: "wide", NumRegs: 1, Instrs: instrs}
	defer func() {
		if recover() == nil {
			t.Error("5-slot template did not panic")
		}
	}()
	NewCostModel(core620like(1), tmpl)
}

func TestStringers(t *testing.T) {
	if IntDiv.String() != "IntDiv" || FPDiv.String() != "FPDiv" {
		t.Error("Class.String wrong for divides")
	}
	if Class(200).String() == "" {
		t.Error("unknown class String empty")
	}
	if UnitFPU.String() != "FPU" || Unit(99).String() == "" {
		t.Error("Unit.String wrong")
	}
}

func TestNewRunnerPanicsOnBadInput(t *testing.T) {
	good := &Template{Name: "t", NumRegs: 1,
		Instrs: []Instr{{Class: IntALU, Src1: -1, Src2: -1, Dst: 0, MemSlot: -1}}}
	bad := &Template{Name: "b", NumRegs: 0,
		Instrs: []Instr{{Class: IntALU, Src1: 5, Src2: -1, Dst: 0, MemSlot: -1}}}
	cfg := core620like(1)
	broken := core620like(1)
	broken.IssueWidth = 0
	cases := []func(){
		func() { NewRunner(broken, good) },
		func() { NewRunner(cfg, bad) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

// The memo must distinguish tuples, clamp huge latencies, and handle
// one-, three- and four-slot templates through the map path.
func TestCostModelWideTuples(t *testing.T) {
	instrs := make([]Instr, 3)
	for i := range instrs {
		instrs[i] = Instr{Class: Load, Src1: -1, Src2: -1, Dst: 0, MemSlot: i}
	}
	tmpl := &Template{Name: "ld3", NumRegs: 1, Instrs: instrs}
	m := NewCostModel(core620like(2), tmpl)
	a := m.CyclesPerIter([]int64{2, 2, 2})
	bb := m.CyclesPerIter([]int64{40, 40, 40})
	if bb <= a {
		t.Errorf("miss tuple %g not above hit tuple %g", bb, a)
	}
	// Repeated lookups hit the lastKey fast path.
	if got := m.CyclesPerIter([]int64{40, 40, 40}); got != bb {
		t.Error("fast path changed the answer")
	}
	// Huge latencies clamp in packKey without collision against zero.
	big := m.CyclesPerIter([]int64{1 << 40, 2, 2})
	if big <= a {
		t.Error("clamped huge latency lost")
	}
	if entries(m) != 3 {
		t.Errorf("entries = %d, want 3", entries(m))
	}
	// Negative latencies clamp to zero rather than corrupting the key.
	_ = m.CyclesPerIter([]int64{-5, 2, 2})
}

// Two-slot tuples beyond the array range fall back to the map.
func TestCostModelLargeTwoSlotTuple(t *testing.T) {
	tmpl := &Template{Name: "ld2", NumRegs: 2, Instrs: []Instr{
		{Class: Load, Src1: -1, Src2: -1, Dst: 0, MemSlot: 0},
		{Class: Load, Src1: -1, Src2: -1, Dst: 1, MemSlot: 1},
	}}
	m := NewCostModel(core620like(1), tmpl)
	small := m.CyclesPerIter([]int64{2, 2})
	huge := m.CyclesPerIter([]int64{400, 400})
	if huge <= small {
		t.Error("map-path tuple lost ordering")
	}
	if entries(m) != 2 {
		t.Errorf("entries = %d, want 2", entries(m))
	}
}

// TestCostModelSharedEntryStaysExact drives unquantized two-slot tuples
// that share an entry of the small table ({5,5} and {6,6} both index
// 1<<6|1) and checks each against a fresh model, in both orders.
func TestCostModelSharedEntryStaysExact(t *testing.T) {
	tmpl := &Template{
		Name:    "ld2",
		NumRegs: 3,
		Instrs: []Instr{
			{Class: Load, Src1: -1, Src2: -1, Dst: 0, MemSlot: 0},
			{Class: Load, Src1: -1, Src2: -1, Dst: 1, MemSlot: 1},
			{Class: FPAdd, Src1: 0, Src2: 1, Dst: 2, MemSlot: -1},
		},
	}
	fresh := func(lat []int64) float64 {
		return NewCostModel(core620like(1), tmpl).CyclesPerIter(lat)
	}
	tuples := [][]int64{{5, 5}, {6, 6}, {7, 4}, {4, 7}}
	want := make([]float64, len(tuples))
	for i, lat := range tuples {
		want[i] = fresh(lat)
	}
	if want[0] == want[1] {
		t.Fatalf("{5,5} and {6,6} cost the same (%g); the test needs tuples that differ", want[0])
	}
	for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}} {
		m := NewCostModel(core620like(1), tmpl)
		for pass := 0; pass < 2; pass++ {
			for _, i := range order {
				if got := m.CyclesPerIter(tuples[i]); got != want[i] {
					t.Errorf("order %v pass %d: %v costs %g, want %g", order, pass, tuples[i], got, want[i])
				}
			}
		}
		if entries(m) != len(tuples) {
			t.Errorf("order %v: entries = %d, want %d", order, entries(m), len(tuples))
		}
	}
}
