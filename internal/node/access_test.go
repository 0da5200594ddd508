package node_test

import (
	"testing"

	"powermanna/internal/machine"
	"powermanna/internal/node"
)

// accessPath is a cyclic address stream that sends every Proc.Access
// down one path.
type accessPath struct {
	name            string
	base, stride, n uint64 // n == 0: never revisit an address
	// misses is the L1, L2 and TLB misses each access must cause; -1
	// leaves a level unpinned.
	misses [3]int64
}

// accessPaths returns a stream for each path through Proc.Access on p's
// geometry: an L1 hit; an L1 miss that hits the L2 (a cycle over twice the
// L1); an L2 miss to memory; and a TLB miss (one line per page over twice
// the TLB's reach).
func accessPaths(p *node.Proc) []accessPath {
	line := uint64(p.L1().Config().LineBytes)
	page := uint64(p.TLB().Config().LineBytes)
	return []accessPath{
		{name: "hit", base: 0x10, n: 1, misses: [3]int64{0, 0, 0}},
		{name: "l2-hit", base: 0x100_0000, stride: line, n: 2 * uint64(p.L1().Config().SizeBytes) / line, misses: [3]int64{1, 0, 0}},
		{name: "miss", base: 0x1000_0000, stride: line, misses: [3]int64{1, 1, -1}},
		{name: "tlb-miss", base: 0x400_0000, stride: page, n: 2 * uint64(p.TLB().Config().SizeBytes) / page, misses: [3]int64{-1, -1, 1}},
	}
}

func misses(p *node.Proc) [3]int64 {
	s1, s2, st := p.L1().Stats(), p.L2().Stats(), p.TLB().Stats()
	return [3]int64{s1.ReadMisses + s1.WriteMisses, s2.ReadMisses + s2.WriteMisses, st.ReadMisses}
}

// TestProcAccessAllocatesNothing pins the node model's per-access cost:
// no path through Proc.Access may allocate.
func TestProcAccessAllocatesNothing(t *testing.T) {
	const runs = 200
	for _, cfg := range machine.All() {
		p := node.New(cfg).Proc(0)
		for _, path := range accessPaths(p) {
			var i uint64
			for _, write := range []bool{false, true} {
				next := func() uint64 {
					a := path.base + i*path.stride
					i++
					if path.n > 0 {
						i %= path.n
					}
					return a
				}
				for k := uint64(0); k < path.n; k++ {
					p.Access(next(), write)
				}
				before := misses(p)
				allocs := testing.AllocsPerRun(runs, func() {
					p.AdvanceCycles(float64(p.Access(next(), write)))
				})
				if allocs != 0 {
					t.Errorf("%s %s write=%v: %.1f allocs per Access, want 0", cfg.Name, path.name, write, allocs)
				}
				after := misses(p)
				for lvl, per := range path.misses {
					// AllocsPerRun adds one warm-up call.
					if got := after[lvl] - before[lvl]; per >= 0 && got != per*(runs+1) {
						t.Errorf("%s %s write=%v: %s missed %d times in %d accesses, want %d per access",
							cfg.Name, path.name, write, [3]string{"L1", "L2", "TLB"}[lvl], got, runs+1, per)
					}
				}
			}
		}
	}
}

// BenchmarkProcAccess measures one Proc.Access plus the AdvanceCycles a
// kernel charges for it, per machine, on two MatMult-like read streams: a
// sequential walk of 8-byte elements and a column walk of a 201x201
// float64 matrix (stride 1608 bytes, the naive kernel's inner loop).
func BenchmarkProcAccess(b *testing.B) {
	const n = 201
	streams := []struct {
		name string
		addr func(i int) uint64
	}{
		{"seq", func(i int) uint64 { return uint64(i%(n*n)) * 8 }},
		{"column", func(i int) uint64 {
			i %= n * n
			return uint64(i%n)*n*8 + uint64(i/n)*8
		}},
	}
	for _, cfg := range machine.All() {
		for _, s := range streams {
			b.Run(cfg.Name+"/"+s.name, func(b *testing.B) {
				p := node.New(cfg).Proc(0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.AdvanceCycles(float64(p.Access(0x2000_0000+s.addr(i), false)))
				}
			})
		}
	}
}
