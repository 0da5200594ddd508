package hint

import (
	"powermanna/internal/cpu"
	"powermanna/internal/node"
)

// recordBytes is the storage of one interval record: eight 8-byte fields
// (bounds, function values, error, padding) — exactly one PowerMANNA cache
// line, two lines on the 32-byte-line machines. HINT's designers sized the
// ratio of operations to storage near one to one; a 64-byte record per
// ~dozen operations per split keeps that property.
const recordBytes = 64

// heapBase places the interval array in simulated memory.
const heapBase = 0x2000_0000

func recordAddr(idx int32) uint64 { return heapBase + uint64(idx)*recordBytes }

// heapStepTemplate charges one heap traversal step: load a record's error
// field, compare, conditional exchange bookkeeping.
func heapStepTemplate() *cpu.Template {
	return &cpu.Template{
		Name:    "hint-heapstep",
		NumRegs: 3,
		Instrs: []cpu.Instr{
			{Class: cpu.Load, Src1: 2, Src2: -1, Dst: 0, MemSlot: 0},
			{Class: cpu.IntALU, Src1: 0, Src2: 1, Dst: 1, MemSlot: -1}, // compare
			{Class: cpu.Store, Src1: 1, Src2: -1, Dst: -1, MemSlot: 1}, // swap half
			{Class: cpu.IntALU, Src1: 2, Src2: -1, Dst: 2, MemSlot: -1},
			{Class: cpu.Branch, Src1: -1, Src2: -1, Dst: -1, MemSlot: -1},
		},
	}
}

// evalTemplateDouble charges one interval split's arithmetic in the
// DOUBLE variant: midpoint, one divide for f(mid), bound updates.
func evalTemplateDouble() *cpu.Template {
	return &cpu.Template{
		Name:    "hint-eval-double",
		NumRegs: 8,
		Instrs: []cpu.Instr{
			{Class: cpu.Load, Src1: 7, Src2: -1, Dst: 0, MemSlot: 0},   // top record
			{Class: cpu.FPAdd, Src1: 0, Src2: 1, Dst: 2, MemSlot: -1},  // mid
			{Class: cpu.FPAdd, Src1: 2, Src2: -1, Dst: 3, MemSlot: -1}, // 1-x
			{Class: cpu.FPAdd, Src1: 2, Src2: -1, Dst: 4, MemSlot: -1}, // 1+x
			{Class: cpu.FPDiv, Src1: 3, Src2: 4, Dst: 5, MemSlot: -1},  // f(mid)
			{Class: cpu.FPMul, Src1: 5, Src2: 1, Dst: 6, MemSlot: -1},  // bound contribution
			{Class: cpu.FPMul, Src1: 0, Src2: 1, Dst: 3, MemSlot: -1},
			{Class: cpu.FPAdd, Src1: 6, Src2: 3, Dst: 6, MemSlot: -1},
			{Class: cpu.FPAdd, Src1: 6, Src2: 5, Dst: 6, MemSlot: -1},
			{Class: cpu.Store, Src1: 6, Src2: -1, Dst: -1, MemSlot: 1}, // child record
			{Class: cpu.IntALU, Src1: 7, Src2: -1, Dst: 7, MemSlot: -1},
			{Class: cpu.Branch, Src1: -1, Src2: -1, Dst: -1, MemSlot: -1},
		},
	}
}

// evalTemplateInt is the fixed-point variant: the divide and multiplies
// run on the integer complex unit.
func evalTemplateInt() *cpu.Template {
	return &cpu.Template{
		Name:    "hint-eval-int",
		NumRegs: 8,
		Instrs: []cpu.Instr{
			{Class: cpu.Load, Src1: 7, Src2: -1, Dst: 0, MemSlot: 0},
			{Class: cpu.IntALU, Src1: 0, Src2: 1, Dst: 2, MemSlot: -1},
			{Class: cpu.IntALU, Src1: 2, Src2: -1, Dst: 3, MemSlot: -1},
			{Class: cpu.IntALU, Src1: 2, Src2: -1, Dst: 4, MemSlot: -1},
			{Class: cpu.IntDiv, Src1: 3, Src2: 4, Dst: 5, MemSlot: -1},
			{Class: cpu.IntMul, Src1: 5, Src2: 1, Dst: 6, MemSlot: -1},
			{Class: cpu.IntMul, Src1: 0, Src2: 1, Dst: 3, MemSlot: -1},
			{Class: cpu.IntALU, Src1: 6, Src2: 3, Dst: 6, MemSlot: -1},
			{Class: cpu.IntALU, Src1: 6, Src2: 5, Dst: 6, MemSlot: -1},
			{Class: cpu.Store, Src1: 6, Src2: -1, Dst: -1, MemSlot: 1},
			{Class: cpu.IntALU, Src1: 7, Src2: -1, Dst: 7, MemSlot: -1},
			{Class: cpu.Branch, Src1: -1, Src2: -1, Dst: -1, MemSlot: -1},
		},
	}
}

// Run executes HINT on processor 0 of a fresh node until the interval
// count reaches maxIntervals, sampling the QUIPS curve at geometrically
// spaced interval counts.
func Run(nd *node.Node, dt DataType, maxIntervals int) Result {
	nd.Reset()
	p := nd.Proc(0)
	core := p.Core()
	heapCost := cpu.NewCostModel(core, heapStepTemplate())
	var evalCost *cpu.CostModel
	if dt == Double {
		evalCost = cpu.NewCostModel(core, evalTemplateDouble())
	} else {
		evalCost = cpu.NewCostModel(core, evalTemplateInt())
	}

	// Each split nets one interval, so the heap never outgrows this.
	st := newHintState(maxIntervals + 1)
	res := Result{Machine: nd.Config().Name, Type: dt}
	var touched []int32
	lat := [2]int64{0, 1}
	nextSample := 16

	for len(st.heap) < maxIntervals {
		// Functional split, collecting the heap indexes the run touched.
		touched = st.split(touched[:0])
		top := int32(0)

		// Timing: the eval/split arithmetic reads the top record and
		// appends two children sequentially.
		lat[0] = evalCost.Quantize(p.Access(recordAddr(top), false))
		childA := int32(len(st.heap) - 2)
		childB := childA + 1
		p.Access(recordAddr(childA), true)
		p.Access(recordAddr(childB), true)
		p.AdvanceCycles(evalCost.CyclesPerIter(lat[:]))

		// Timing: each touched heap slot is one traversal step.
		for _, idx := range touched {
			lat[0] = heapCost.Quantize(p.Access(recordAddr(idx), false))
			p.AdvanceCycles(heapCost.CyclesPerIter(lat[:]))
		}

		if len(st.heap) >= nextSample {
			res.Points = append(res.Points, sample(st, dt, p))
			nextSample = nextSample * 5 / 4
		}
	}
	res.Points = append(res.Points, sample(st, dt, p))
	res.Lower, res.Upper = st.lower, st.upper
	for _, pt := range res.Points {
		if pt.QUIPS > res.PeakQUIPS {
			res.PeakQUIPS = pt.QUIPS
		}
	}
	return res
}

func sample(st *hintState, dt DataType, p *node.Proc) Point {
	var q float64
	if dt == Double {
		q = st.quality()
	} else {
		gap := st.iupper - st.ilower
		if gap > 0 {
			q = float64(fixedOne) / float64(gap)
		}
	}
	t := p.Now()
	pt := Point{Time: t, Intervals: len(st.heap), Quality: q}
	if secs := t.Seconds(); secs > 0 {
		pt.QUIPS = q / secs
	}
	return pt
}
