// Package matmult implements the paper's MatMult benchmark (Section 5.1):
// C = A×B on N×N float64 matrices, in the two variants of Figure 7:
//
//   - Naive: both matrices in row order; the inner loop reads B by column,
//     a large stride that defeats spatial locality. The PowerMANNA node's
//     long 64-byte lines prefetch superfluous data here, and its missing
//     load pipelining serializes the misses — the paper's explanation for
//     its factor 2.5–6 drop versus the transposed variant.
//
//   - Transposed: B is first transposed (the measured runtime includes the
//     transposition) and the inner loop then runs down two rows, where the
//     long lines and large L2 of the PowerMANNA node pay off.
//
// The kernel computes the real product (checksums are validated in tests)
// while driving the machine timing model: every element access is
// classified by the node's caches and, on a miss, timed against the
// fabric; per-iteration pipeline cost comes from the core's scoreboard
// via the memoized cpu.CostModel.
package matmult

import (
	"fmt"

	"powermanna/internal/cpu"
	"powermanna/internal/node"
	"powermanna/internal/sim"
)

// Version selects the benchmark variant.
type Version uint8

const (
	// Naive multiplies with B in row order (column-strided inner reads).
	Naive Version = iota
	// Transposed transposes B first and multiplies rows by rows.
	Transposed
)

// String names the kernel variant as the paper's figures label it.
func (v Version) String() string {
	if v == Naive {
		return "naive"
	}
	return "transposed"
}

// Result reports one benchmark run.
type Result struct {
	Machine  string
	N        int
	Version  Version
	CPUs     int
	Time     sim.Time
	Flops    int64
	Checksum float64
}

// MFLOPS reports achieved millions of floating-point operations/second.
func (r Result) MFLOPS() float64 {
	if r.Time <= 0 {
		return 0
	}
	return float64(r.Flops) / r.Time.Seconds() / 1e6
}

// String summarizes the run: machine, variant, size and MFLOPS.
func (r Result) String() string {
	return fmt.Sprintf("%s MatMult(%s) N=%d cpus=%d: %.1f MFLOPS in %v",
		r.Machine, r.Version, r.N, r.CPUs, r.MFLOPS(), r.Time)
}

// perCellOverheadCycles charges loop bookkeeping (index updates, branch,
// store setup) once per output element. Calibrated.
const perCellOverheadCycles = 6

// layout places the four arrays the way a heap allocator would: contiguous
// with page-aligned starts and a guard page between them. Power-of-two
// spacing (e.g. all arrays 256 MB apart) would alias every array onto the
// same sets of a direct-mapped L2 — a pathology real allocations avoid.
type layout struct {
	a, b, bt, c uint64
}

func newLayout(n int) layout {
	const page = 4096
	sz := uint64(n*n) * 8
	round := func(x uint64) uint64 { return (x + page - 1) / page * page }
	a := uint64(0x1000_0000)
	b := round(a+sz) + page
	bt := round(b+sz) + page
	c := round(bt+sz) + page
	return layout{a: a, b: b, bt: bt, c: c}
}

// innerTemplate is the multiply inner-loop body: two loads feeding a
// multiply-accumulate with a genuine loop-carried dependency on the
// accumulator, plus index update and branch — the code a late-90s
// compiler emitted for `sum += a[i][k]*b[k][j]`.
func innerTemplate(core *cpu.Config) *cpu.Template {
	// Registers: 0=a, 1=b, 2=acc (loop-carried), 3=tmp, 4=index.
	if core.HasFMA {
		return &cpu.Template{
			Name:    "matmult-fma",
			NumRegs: 5,
			Instrs: []cpu.Instr{
				{Class: cpu.Load, Src1: 4, Src2: -1, Dst: 0, MemSlot: 0},
				{Class: cpu.Load, Src1: 4, Src2: -1, Dst: 1, MemSlot: 1},
				{Class: cpu.FPMAdd, Src1: 0, Src2: 1, Dst: 2, MemSlot: -1},
				{Class: cpu.IntALU, Src1: 4, Src2: -1, Dst: 4, MemSlot: -1},
				{Class: cpu.Branch, Src1: -1, Src2: -1, Dst: -1, MemSlot: -1},
			},
		}
	}
	return &cpu.Template{
		Name:    "matmult-muladd",
		NumRegs: 5,
		Instrs: []cpu.Instr{
			{Class: cpu.Load, Src1: 4, Src2: -1, Dst: 0, MemSlot: 0},
			{Class: cpu.Load, Src1: 4, Src2: -1, Dst: 1, MemSlot: 1},
			{Class: cpu.FPMul, Src1: 0, Src2: 1, Dst: 3, MemSlot: -1},
			{Class: cpu.FPAdd, Src1: 3, Src2: 2, Dst: 2, MemSlot: -1},
			{Class: cpu.IntALU, Src1: 4, Src2: -1, Dst: 4, MemSlot: -1},
			{Class: cpu.Branch, Src1: -1, Src2: -1, Dst: -1, MemSlot: -1},
		},
	}
}

// transposeTemplate is the transposition loop body: strided load,
// sequential store, bookkeeping.
func transposeTemplate() *cpu.Template {
	return &cpu.Template{
		Name:    "transpose",
		NumRegs: 2,
		Instrs: []cpu.Instr{
			{Class: cpu.Load, Src1: 1, Src2: -1, Dst: 0, MemSlot: 0},
			{Class: cpu.Store, Src1: 0, Src2: -1, Dst: -1, MemSlot: 1},
			{Class: cpu.IntALU, Src1: 1, Src2: -1, Dst: 1, MemSlot: -1},
			{Class: cpu.Branch, Src1: -1, Src2: -1, Dst: -1, MemSlot: -1},
		},
	}
}

// Matrices holds the functional data shared by all CPUs of a run.
type Matrices struct {
	N           int
	A, B, BT, C []float64
}

// NewMatrices builds deterministic input matrices: A[i][j] and B[i][j]
// are small rationals so checksums are exactly reproducible.
func NewMatrices(n int) *Matrices {
	m := &Matrices{
		N:  n,
		A:  make([]float64, n*n),
		B:  make([]float64, n*n),
		BT: make([]float64, n*n),
		C:  make([]float64, n*n),
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.A[i*n+j] = float64((i+j)%7) * 0.25
			m.B[i*n+j] = float64((i*3+j)%5) * 0.5
		}
	}
	return m
}

// Checksum folds C into one value for functional validation.
func (m *Matrices) Checksum() float64 {
	var s float64
	for _, v := range m.C {
		s += v
	}
	return s
}

// Reference computes the product directly (for tests).
func Reference(n int) float64 {
	m := NewMatrices(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			for k := 0; k < n; k++ {
				sum += m.A[i*n+k] * m.B[k*n+j]
			}
			m.C[i*n+j] = sum
		}
	}
	return m.Checksum()
}

// kernel is one CPU's share of the benchmark: a row range of C and (for
// the transposed variant) a column range of the transposition. Step
// advances one element at a time so that SMP runs interleave at fine
// grain: shared-resource queueing is then resolved at close to true
// arrival order (see node.RunParallel). A lone transposed kernel may also
// commit a same-line hit run in the same Step (see hitRun).
type kernel struct {
	p     *node.Proc
	m     *Matrices
	lay   layout
	v     Version
	cost  *cpu.CostModel
	costT *cpu.CostModel
	lat   [2]int64

	rowStart, rowEnd int // C rows
	colStart, colEnd int // transposition columns
	phase            int // 0 = transpose (if any), 1 = multiply
	i, j, kk         int
	sum              float64

	// runs enables same-line hit runs (see hitRun); hitCost is the cycles
	// of a multiply iteration whose two loads hit the L1, and line the L1
	// line length, kept here because copying the L1's Config on every
	// hitRun made the transposed kernel ~15% slower.
	runs    bool
	hitCost float64
	line    uint64
}

func newKernel(p *node.Proc, m *Matrices, lay layout, v Version, rows, cols [2]int, runs bool) *kernel {
	core := p.Core()
	k := &kernel{
		p:        p,
		m:        m,
		lay:      lay,
		v:        v,
		cost:     cpu.NewCostModel(core, innerTemplate(core)),
		rowStart: rows[0], rowEnd: rows[1],
		colStart: cols[0], colEnd: cols[1],
		i: rows[0],
	}
	if v == Transposed && cols[0] < cols[1] {
		k.costT = cpu.NewCostModel(core, transposeTemplate())
		k.j = cols[0]
	} else {
		k.phase = 1 // nothing to transpose
	}
	if runs && v == Transposed {
		hit := k.cost.Quantize(p.L1HitCycles())
		k.runs = true
		k.hitCost = k.cost.CyclesPerIter([]int64{hit, hit})
		k.line = uint64(p.L1().Config().LineBytes)
	}
	return k
}

func (k *kernel) Proc() *node.Proc { return k.p }

// Step advances one transposition element or one multiply-accumulate.
func (k *kernel) Step() bool {
	n := k.m.N
	if k.phase == 0 {
		// Transpose element BT[j][kk] = B[kk][j].
		j := k.j
		src := k.lay.b + uint64(k.kk*n+j)*8
		dst := k.lay.bt + uint64(j*n+k.kk)*8
		k.lat[0] = k.cost.Quantize(k.p.Access(src, false))
		k.lat[1] = 1 // store-buffered
		k.m.BT[j*n+k.kk] = k.m.B[k.kk*n+j]
		if stall := k.p.Access(dst, true) - k.p.L1HitCycles(); stall > 0 {
			k.p.AdvanceCycles(float64(stall))
		}
		k.p.AdvanceCycles(k.costT.CyclesPerIter(k.lat[:]))
		k.kk++
		if k.kk >= n {
			k.kk = 0
			k.j++
			if k.j >= k.colEnd {
				k.phase = 1
				k.i = k.rowStart
				k.j = 0
			}
		}
		return k.phase == 0 || k.i < k.rowEnd
	}

	// Multiply element: sum += A[i][kk] * B[kk][j].
	if k.i >= k.rowEnd {
		return false
	}
	i, j := k.i, k.j
	aAddr := k.lay.a + uint64(i*n+k.kk)*8
	var bAddr uint64
	var bVal float64
	if k.v == Transposed {
		bAddr = k.lay.bt + uint64(j*n+k.kk)*8
		bVal = k.m.BT[j*n+k.kk]
	} else {
		bAddr = k.lay.b + uint64(k.kk*n+j)*8
		bVal = k.m.B[k.kk*n+j]
	}
	k.lat[0] = k.cost.Quantize(k.p.Access(aAddr, false))
	k.lat[1] = k.cost.Quantize(k.p.Access(bAddr, false))
	k.sum += k.m.A[i*n+k.kk] * bVal
	k.p.AdvanceCycles(k.cost.CyclesPerIter(k.lat[:]))
	k.kk++
	if k.runs {
		k.hitRun(aAddr, bAddr)
	}
	if k.kk >= n {
		// Cell complete: store C[i][j], pay loop bookkeeping.
		k.m.C[i*n+j] = k.sum
		if stall := k.p.Access(k.lay.c+uint64(i*n+j)*8, true) - k.p.L1HitCycles(); stall > 0 {
			k.p.AdvanceCycles(float64(stall))
		}
		k.p.AdvanceCycles(perCellOverheadCycles)
		k.sum = 0
		k.kk = 0
		k.j++
		if k.j >= n {
			k.j = 0
			k.i++
		}
	}
	return k.i < k.rowEnd
}

// hitRun follows a transposed multiply iteration that read aAddr and
// bAddr with the iterations that read the rest of both lines, up to the
// end of the nearer line or of the row. After the iteration both lines
// sit in the predicted L1 ways and their pages in the predicted TLB ways,
// so when Proc.ReadHitRun confirms that, each of those iterations hits
// both loads and it commits them in one call; the products are summed in
// the same order. Otherwise the next Step reads them one by one.
func (k *kernel) hitRun(aAddr, bAddr uint64) {
	n := k.m.N
	last := k.line - 8 // offset of a line's last element
	run := min(int(last-aAddr%k.line), int(last-bAddr%k.line)) / 8
	run = min(run, n-k.kk)
	if run < 1 || !k.p.ReadHitRun(aAddr+8, bAddr+8, run, k.hitCost) {
		return
	}
	a := k.m.A[k.i*n+k.kk : k.i*n+k.kk+run]
	b := k.m.BT[k.j*n+k.kk : k.j*n+k.kk+run]
	for x := range a {
		k.sum += a[x] * b[x]
	}
	k.kk += run
}

// Run executes the benchmark on the first `cpus` processors of a fresh
// (reset) node, splitting C rows — and, in the transposed variant, the
// transposition columns — evenly. It returns timing and checksum. It
// panics unless n >= 1 and 1 <= cpus <= the installed CPUs.
func Run(nd *node.Node, n int, v Version, cpus int) Result {
	return run(nd, n, v, cpus, true)
}

// run is Run; runs enables same-line hit runs, which are exact only with
// one kernel (see node.Proc.ReadHitRun), so they apply only when cpus is 1.
func run(nd *node.Node, n int, v Version, cpus int, runs bool) Result {
	if cpus <= 0 || cpus > len(nd.Procs()) {
		panic(fmt.Sprintf("matmult: cpus = %d with %d installed", cpus, len(nd.Procs())))
	}
	if n < 1 {
		panic(fmt.Sprintf("matmult: n = %d", n))
	}
	nd.Reset()
	m := NewMatrices(n)
	lay := newLayout(n)
	kernels := make([]node.Kernel, cpus)
	for c := 0; c < cpus; c++ {
		rows := [2]int{c * n / cpus, (c + 1) * n / cpus}
		cols := [2]int{c * n / cpus, (c + 1) * n / cpus}
		kernels[c] = newKernel(nd.Proc(c), m, lay, v, rows, cols, runs && cpus == 1)
	}
	makespan := node.RunParallel(kernels...)
	return Result{
		Machine:  nd.Config().Name,
		N:        n,
		Version:  v,
		CPUs:     cpus,
		Time:     makespan,
		Flops:    2 * int64(n) * int64(n) * int64(n),
		Checksum: m.Checksum(),
	}
}
