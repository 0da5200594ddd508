package experiments

import (
	"fmt"

	"powermanna/internal/bus"
	"powermanna/internal/cpu"
	"powermanna/internal/machine"
	"powermanna/internal/node"
	"powermanna/internal/stats"
)

// The node-scalability ablation reproduces the Section 2 design claim:
// "detailed simulations ... showed that the actual node design would
// support up to four processors without their significantly hindering one
// another. We found that the limiting factor is not the bandwidth of the
// node memory (thanks to its efficient implementation) but the
// sequentialization of the address phases enforced by the snoop protocol
// of the MPC620 processor."
//
// The workload is coherence-heavy but data-light, the regime where that
// claim bites: each processor streams a private cache-resident array and
// regularly writes lines of a shared region that every processor writes
// in turn, so the fabric sees a high rate of invalidating address phases
// answered cache-to-cache (the previous writer owns the line Modified)
// while the memory datapath stays almost idle.

const (
	scalePrivateBase = 0x1000_0000
	scaleSharedBase  = 0x9001_0000 // offset past the private arrays' direct-mapped L2 sets
	scaleSharedLines = 64
	scalePrivLines   = 128 // 8 KB: comfortably L1-resident beside the shared lines
)

// scaleKernel is one CPU's stream.
type scaleKernel struct {
	p     *node.Proc
	id    int
	iters int
	done  int
	cost  *cpu.CostModel
	lat   [2]int64
}

func scaleTemplate() *cpu.Template {
	return &cpu.Template{
		Name:    "scale",
		NumRegs: 4,
		Instrs: []cpu.Instr{
			{Class: cpu.Load, Src1: 3, Src2: -1, Dst: 0, MemSlot: 0}, // private
			{Class: cpu.Load, Src1: 3, Src2: -1, Dst: 1, MemSlot: 1}, // shared
			{Class: cpu.IntALU, Src1: 0, Src2: 1, Dst: 2, MemSlot: -1},
			{Class: cpu.IntALU, Src1: 3, Src2: -1, Dst: 3, MemSlot: -1},
			{Class: cpu.Branch, Src1: -1, Src2: -1, Dst: -1, MemSlot: -1},
		},
	}
}

func (k *scaleKernel) Proc() *node.Proc { return k.p }

func (k *scaleKernel) Step() bool {
	if k.done >= k.iters {
		return false
	}
	i := k.done
	priv := uint64(scalePrivateBase) + uint64(k.id)<<24 + uint64(i%scalePrivLines)*64
	k.lat[0] = k.cost.Quantize(k.p.Access(priv, false))
	k.lat[1] = k.lat[0]
	if i%12 == 0 {
		// Write a rotating shared line that every processor writes in
		// turn. The previous writer holds it Modified, so each write is
		// an invalidating address phase answered cache-to-cache — the
		// dispatcher-serialized transaction, with no memory data moved.
		shared := uint64(scaleSharedBase) + uint64(i/12%scaleSharedLines)*64
		if stall := k.p.Access(shared, true) - k.p.L1HitCycles(); stall > 0 {
			k.p.AdvanceCycles(float64(stall))
		}
	}
	k.p.AdvanceCycles(k.cost.CyclesPerIter(k.lat[:]))
	k.done++
	return k.done < k.iters
}

// NodeScalability sweeps the PowerMANNA node from 1 to 6 processors.
func NodeScalability(opt Options) Result {
	iters := 400_000
	if opt.Quick {
		iters = 60_000
	}
	fig := &stats.Figure{
		Title:  "Ablation: PowerMANNA node scalability (coherence-heavy workload)",
		XLabel: "processors",
		YLabel: "speedup",
	}
	speedups := stats.Series{Name: "speedup"}
	snoopUtil := stats.Series{Name: "snoop util x10"}
	memUtil := stats.Series{Name: "mem util x10"}
	// One row per CPU count, each on its own node.
	type scalePoint struct{ throughput, snoop, mem float64 }
	counts := []int{1, 2, 3, 4, 5, 6}
	points := rows(opt, len(counts), func(i int) scalePoint {
		cpus := counts[i]
		nd := node.New(machine.PowerMANNAWithCPUs(cpus))
		kernels := make([]node.Kernel, cpus)
		for c := 0; c < cpus; c++ {
			kernels[c] = &scaleKernel{
				p:     nd.Proc(c),
				id:    c,
				iters: iters,
				cost:  cpu.NewCostModel(nd.Proc(c).Core(), scaleTemplate()),
			}
		}
		makespan := node.RunParallel(kernels...)
		sw, _ := nd.Fabric().(*bus.SwitchedFabric)
		return scalePoint{
			throughput: float64(cpus) * float64(iters) / makespan.Seconds(),
			snoop:      sw.SnoopUtilization(makespan),
			mem:        nd.Memory().Stats().DatapathBusy.Seconds() / makespan.Seconds(),
		}
	})
	notes := []string{}
	for i, cpus := range counts {
		sp := points[i].throughput / points[0].throughput
		su, mu := points[i].snoop, points[i].mem
		speedups.Add(float64(cpus), sp)
		snoopUtil.Add(float64(cpus), su*10)
		memUtil.Add(float64(cpus), mu*10)
		notes = append(notes, fmt.Sprintf("%d CPUs: speedup %.2f, snoop util %.0f%%, memory util %.0f%%", cpus, sp, su*100, mu*100))
	}
	fig.Add(speedups)
	fig.Add(snoopUtil)
	fig.Add(memUtil)
	return Result{
		ID:          "nodescale",
		Description: "node speedup 1..6 CPUs; which shared resource binds",
		Expected:    "near-linear to 4 processors; beyond that the dispatcher's serialized address/snoop phases saturate while the memory datapath stays far from its 640 MB/s limit",
		Figure:      fig,
		Notes:       notes,
	}
}
