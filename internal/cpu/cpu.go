// Package cpu models superscalar processor cores at the timing level
// needed to reproduce the paper's node benchmarks: issue width, execution
// units, operation latencies and pipelining, fused multiply-add, and —
// decisive for Figure 7 — whether the load/store unit pipelines misses.
//
// The paper (Section 5.1): "the PowerPC MPC620 is specially designed to
// support floating-point pipelining, but it does not support load
// pipelining (the follow-up processor Power3, however, incorporates this).
// Thus, the available memory bandwidth of PowerMANNA cannot be fully
// exploited."
//
// The model is a dispatch scoreboard over loop templates: a template is a
// loop body with explicit virtual-register dependencies; the scoreboard
// issues instructions in program order (bounded by issue width), lets them
// wait for operands at their unit (reservation-station style, unless the
// core is configured in-order), and retires results after the unit
// latency. Memory operations take per-iteration latencies supplied by the
// caller (the cache/fabric models), and outstanding misses are bounded by
// the core's miss-queue depth — depth 1 is exactly "no load pipelining".
package cpu

import (
	"fmt"

	"powermanna/internal/sim"
)

// Class identifies an instruction kind in a loop template.
type Class uint8

// Instruction classes. FPMAdd is the fused multiply-add the MPC620's FPU
// executes as one operation (two flops).
const (
	IntALU Class = iota
	IntMul
	IntDiv
	FPAdd
	FPMul
	FPMAdd
	FPDiv
	Load
	Store
	Branch
	numClasses
)

// String names the instruction class.
func (c Class) String() string {
	names := [...]string{"IntALU", "IntMul", "IntDiv", "FPAdd", "FPMul", "FPMAdd", "FPDiv", "Load", "Store", "Branch"}
	if int(c) < len(names) {
		return names[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Unit identifies an execution-unit kind.
type Unit uint8

// Execution unit kinds.
const (
	UnitIntALU Unit = iota
	UnitIntMul
	UnitFPU
	UnitLS
	UnitBranch
	numUnits
)

// String names the functional unit.
func (u Unit) String() string {
	names := [...]string{"IntALU", "IntMul", "FPU", "LS", "Branch"}
	if int(u) < len(names) {
		return names[u]
	}
	return fmt.Sprintf("Unit(%d)", uint8(u))
}

// OpTiming describes how one instruction class executes.
type OpTiming struct {
	// Unit is the execution unit kind the class dispatches to.
	Unit Unit
	// Latency is cycles from execution start to result availability.
	Latency int
	// Pipelined units accept a new operation every cycle; non-pipelined
	// units are busy for the full latency.
	Pipelined bool
}

// Config describes one core.
type Config struct {
	// Name labels the core, e.g. "MPC620".
	Name string
	// Clock is the core clock domain.
	Clock sim.Clock
	// IssueWidth is instructions dispatched per cycle (MPC620: 4).
	IssueWidth int
	// Units is the number of instances of each unit kind.
	Units [numUnits]int
	// Timing gives per-class unit binding and latency. Load latency here
	// is the L1-hit load-use latency; larger per-access latencies are
	// supplied by the caller per iteration.
	Timing [numClasses]OpTiming
	// MissQueue is the number of outstanding load misses the core
	// sustains. 1 models the MPC620's missing load pipelining: a load
	// miss blocks the next miss until it completes. Larger values model
	// the non-blocking load queues of the comparison machines.
	MissQueue int
	// InOrderExec forces execution starts to be program-ordered, as on
	// the UltraSPARC-I. Cores with reservation stations (MPC620, P6)
	// leave this false: dispatched operations wait for operands at their
	// unit without blocking younger independent work.
	InOrderExec bool
	// HasFMA reports whether FPMAdd executes as one operation. Kernels
	// expand multiply-adds into FPMul+FPAdd on cores without it.
	HasFMA bool
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.Clock.Period <= 0:
		return fmt.Errorf("cpu %q: zero clock", c.Name)
	case c.IssueWidth <= 0:
		return fmt.Errorf("cpu %q: IssueWidth = %d", c.Name, c.IssueWidth)
	case c.MissQueue <= 0:
		return fmt.Errorf("cpu %q: MissQueue = %d (use 1 for blocking misses)", c.Name, c.MissQueue)
	}
	for cl := Class(0); cl < numClasses; cl++ {
		t := c.Timing[cl]
		if t.Latency <= 0 {
			return fmt.Errorf("cpu %q: class %v has latency %d", c.Name, cl, t.Latency)
		}
		if c.Units[t.Unit] <= 0 {
			return fmt.Errorf("cpu %q: class %v bound to unit %v with no instances", c.Name, cl, t.Unit)
		}
	}
	return nil
}

// Instr is one instruction in a loop template. Register indices refer to
// the template's virtual registers; -1 means unused. Loads and stores name
// a memory slot whose latency the caller supplies per iteration.
type Instr struct {
	Class      Class
	Src1, Src2 int
	Dst        int
	MemSlot    int // -1 for non-memory instructions
}

// Template is a loop body. Register values written in one iteration and
// read in the next (loop-carried dependencies, e.g. a running sum) work
// naturally because register ready-times persist across iterations.
type Template struct {
	Name    string
	Instrs  []Instr
	NumRegs int
}

// Validate reports a template error, if any.
func (t *Template) Validate() error {
	memSlots := t.MemSlots()
	for i, in := range t.Instrs {
		if in.Dst >= t.NumRegs || in.Src1 >= t.NumRegs || in.Src2 >= t.NumRegs {
			return fmt.Errorf("template %q: instr %d references register beyond NumRegs", t.Name, i)
		}
		isMem := in.Class == Load || in.Class == Store
		if isMem && (in.MemSlot < 0 || in.MemSlot >= memSlots) {
			return fmt.Errorf("template %q: instr %d memory slot %d invalid", t.Name, i, in.MemSlot)
		}
		if !isMem && in.MemSlot != -1 {
			return fmt.Errorf("template %q: instr %d non-memory with MemSlot %d", t.Name, i, in.MemSlot)
		}
	}
	return nil
}

// MemSlots reports the number of distinct memory slots (max slot + 1).
func (t *Template) MemSlots() int {
	n := 0
	for _, in := range t.Instrs {
		if in.MemSlot >= n {
			n = in.MemSlot + 1
		}
	}
	return n
}

// Runner executes a template iteration-by-iteration on a core,
// maintaining scoreboard state across iterations so that independent work
// from successive iterations overlaps exactly as far as the core's issue
// width, units and miss queue allow.
type Runner struct {
	cfg      *Config
	tmpl     *Template
	regReady []int64   // cycle each virtual register's value is available
	unitFree [][]int64 // per unit kind, per instance: next free cycle
	missRing []int64   // completion cycles of outstanding misses (size MissQueue)
	missPos  int
	issueCyc int64 // current dispatch cycle
	issuedIn int   // instructions dispatched in issueCyc
	lastExec int64 // last execution start (for InOrderExec)
	now      int64 // high-water completion cycle
}

// NewRunner builds a runner. It panics on invalid config or template —
// both are machine-description bugs.
func NewRunner(cfg *Config, tmpl *Template) *Runner {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if err := tmpl.Validate(); err != nil {
		panic(err)
	}
	r := &Runner{
		cfg:      cfg,
		tmpl:     tmpl,
		regReady: make([]int64, tmpl.NumRegs),
		missRing: make([]int64, cfg.MissQueue),
	}
	r.unitFree = make([][]int64, numUnits)
	for u := range r.unitFree {
		r.unitFree[u] = make([]int64, cfg.Units[u])
	}
	return r
}

// dispatch finds the next dispatch cycle honoring issue width.
func (r *Runner) dispatch() int64 {
	if r.issuedIn >= r.cfg.IssueWidth {
		r.issueCyc++
		r.issuedIn = 0
	}
	r.issuedIn++
	return r.issueCyc
}

// earliestUnit picks the unit instance free soonest.
func earliestUnit(frees []int64) int {
	best := 0
	for i := 1; i < len(frees); i++ {
		if frees[i] < frees[best] {
			best = i
		}
	}
	return best
}

// Iterate runs one template iteration. memLat[slot] is the load-use (or
// store-accept) latency in core cycles for each memory slot this
// iteration; slots at the L1-hit latency are hits, anything larger is
// treated as a miss and bounded by the miss queue. It returns the
// completion high-water cycle after this iteration.
func (r *Runner) Iterate(memLat []int64) int64 {
	cfg := r.cfg
	hitLat := int64(cfg.Timing[Load].Latency)
	for _, in := range r.tmpl.Instrs {
		timing := cfg.Timing[in.Class]
		disp := r.dispatch()

		// Operand availability.
		ready := disp
		if in.Src1 >= 0 && r.regReady[in.Src1] > ready {
			ready = r.regReady[in.Src1]
		}
		if in.Src2 >= 0 && r.regReady[in.Src2] > ready {
			ready = r.regReady[in.Src2]
		}

		// Unit availability.
		frees := r.unitFree[timing.Unit]
		ui := earliestUnit(frees)
		start := ready
		if frees[ui] > start {
			start = frees[ui]
		}
		if cfg.InOrderExec && r.lastExec > start {
			start = r.lastExec
		}

		lat := int64(timing.Latency)
		isLoad := in.Class == Load
		if (isLoad || in.Class == Store) && in.MemSlot >= 0 && in.MemSlot < len(memLat) {
			lat = memLat[in.MemSlot]
		}
		if in.Class == Store {
			// Stores retire through the store buffer: the unit is occupied
			// for one cycle and the CPU does not wait for completion. The
			// caller accounts any bus occupancy separately.
			lat = int64(timing.Latency)
		}

		// A load miss must win a miss-queue slot: with MissQueue == 1
		// (no load pipelining) the previous miss must have completed.
		if isLoad && lat > hitLat {
			slot := r.missRing[r.missPos]
			if slot > start {
				start = slot
			}
			r.missRing[r.missPos] = start + lat
			r.missPos = (r.missPos + 1) % len(r.missRing)
		}

		done := start + lat
		if timing.Pipelined {
			frees[ui] = start + 1
		} else {
			frees[ui] = done
		}
		if isLoad && lat > hitLat && !timing.Pipelined {
			// Non-pipelined LS with a miss holds the unit until data
			// returns — the MPC620 behaviour.
			frees[ui] = done
		}
		if cfg.InOrderExec {
			r.lastExec = start
		}
		if in.Dst >= 0 {
			r.regReady[in.Dst] = done
		}
		if done > r.now {
			r.now = done
		}
	}
	return r.now
}

// Cycles reports the completion high-water mark.
func (r *Runner) Cycles() int64 { return r.now }
