package matmult

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"powermanna/internal/machine"
	"powermanna/internal/node"
)

func TestVersionString(t *testing.T) {
	if Naive.String() != "naive" || Transposed.String() != "transposed" {
		t.Error("Version.String wrong")
	}
}

// TestKernelFillsWholeCacheLines pins the kernel's size to a multiple of
// a 64-byte cache line: a kernel that ends inside a line shares it with
// the next object of its size class, which may be a kernel stepping on
// another psim worker. Adjust the pad when a field is added or removed.
func TestKernelFillsWholeCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(kernel{}); size%64 != 0 {
		t.Errorf("kernel is %d bytes, not a multiple of 64", size)
	}
}

// The timing-driven kernel must compute the same product as the direct
// triple loop, in both variants, on every machine.
func TestFunctionalCorrectness(t *testing.T) {
	const n = 17 // odd, small
	want := Reference(n)
	for _, cfg := range machine.All() {
		nd := node.New(cfg)
		for _, v := range []Version{Naive, Transposed} {
			r := Run(nd, n, v, 1)
			if math.Abs(r.Checksum-want) > 1e-9 {
				t.Errorf("%s/%s: checksum %g, want %g", cfg.Name, v, r.Checksum, want)
			}
			if r.Flops != 2*17*17*17 {
				t.Errorf("%s/%s: flops = %d", cfg.Name, v, r.Flops)
			}
			if r.Time <= 0 {
				t.Errorf("%s/%s: non-positive time", cfg.Name, v)
			}
		}
	}
}

func TestSMPFunctionalCorrectness(t *testing.T) {
	const n = 21
	want := Reference(n)
	nd := node.New(machine.PowerMANNA())
	for _, v := range []Version{Naive, Transposed} {
		r := Run(nd, n, v, 2)
		if math.Abs(r.Checksum-want) > 1e-9 {
			t.Errorf("SMP %s: checksum %g, want %g", v, r.Checksum, want)
		}
		if r.CPUs != 2 {
			t.Errorf("CPUs = %d", r.CPUs)
		}
	}
}

func TestDeterminism(t *testing.T) {
	nd := node.New(machine.PowerMANNA())
	a := Run(nd, 15, Naive, 1)
	b := Run(nd, 15, Naive, 1)
	if a.Time != b.Time || a.Checksum != b.Checksum {
		t.Errorf("non-deterministic: %v vs %v", a, b)
	}
}

// Transposed must beat naive on PowerMANNA once the column stride
// defeats the TLB reach and the 64-byte lines (the core claim behind
// Figure 7; at N=301 the naive column pass touches ~177 pages against a
// 128-entry TLB and every B element sits on its own line).
func TestTransposedBeatsNaiveOnPowerMANNA(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	nd := node.New(machine.PowerMANNA())
	const n = 301
	naive := Run(nd, n, Naive, 1)
	transposed := Run(nd, n, Transposed, 1)
	// The paper reports a factor ~2.5 for cache-resident sizes, growing
	// to ~6 once the matrices exceed the L2.
	ratio := transposed.MFLOPS() / naive.MFLOPS()
	if ratio < 2 {
		t.Errorf("transposed/naive ratio = %.2f (%.1f vs %.1f MFLOPS), want >= 2",
			ratio, transposed.MFLOPS(), naive.MFLOPS())
	}
}

// Dual-processor PowerMANNA must scale essentially perfectly (Figure 8:
// "performance for PowerMANNA exactly doubles").
func TestPowerMANNASMPSpeedup(t *testing.T) {
	nd := node.New(machine.PowerMANNA())
	const n = 101
	for _, v := range []Version{Naive, Transposed} {
		one := Run(nd, n, v, 1)
		two := Run(nd, n, v, 2)
		speedup := one.Time.Seconds() / two.Time.Seconds()
		if speedup < 1.9 || speedup > 2.1 {
			t.Errorf("%s: PowerMANNA speedup = %.3f, want ~2.0", v, speedup)
		}
	}
}

func TestRunPanicsOnBadCPUCount(t *testing.T) {
	nd := node.New(machine.PowerMANNA())
	defer func() {
		if recover() == nil {
			t.Error("Run with 3 cpus on 2-cpu node did not panic")
		}
	}()
	Run(nd, 8, Naive, 3)
}

func TestRunPanicsOnEmptyMatrix(t *testing.T) {
	nd := node.New(machine.PowerMANNA())
	for _, v := range []Version{Naive, Transposed} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "matmult:") {
					t.Errorf("Run(n=0, %v) panic = %q, want a matmult: panic", v, msg)
				}
			}()
			Run(nd, 0, v, 1)
		}()
	}
}

// With fewer columns than CPUs a CPU's transposition range is empty, and
// it must leave the columns of the others alone: at N=1 on two CPUs, CPU 0
// owns no row and no column, so it makes no access at all.
func TestRunMoreCPUsThanColumns(t *testing.T) {
	nd := node.New(machine.PowerMANNA())
	r := Run(nd, 1, Transposed, 2)
	if want := Reference(1); r.Checksum != want {
		t.Errorf("checksum = %v, want %v", r.Checksum, want)
	}
	if s := nd.Proc(0).L1().Stats(); s.Reads+s.Writes != 0 {
		t.Errorf("CPU 0 made %d reads and %d writes, want none", s.Reads, s.Writes)
	}
}

func TestMFLOPSZeroTime(t *testing.T) {
	r := Result{Flops: 100}
	if r.MFLOPS() != 0 {
		t.Error("zero-time MFLOPS should be 0")
	}
}

func TestResultString(t *testing.T) {
	nd := node.New(machine.PowerMANNA())
	r := Run(nd, 9, Naive, 1)
	if s := r.String(); s == "" {
		t.Error("empty String()")
	}
}

// BenchmarkMatMult measures one 1-CPU run of each variant at N=101 on the
// PowerMANNA, the SUN and the 180 MHz PC: the node model's whole cost per
// MatMult point of Figures 7 and 8 (DTLB, L1 and L2 per access, plus the
// memoized pipeline cost).
func BenchmarkMatMult(b *testing.B) {
	const n = 101
	for _, cfg := range []node.Config{machine.PowerMANNA(), machine.SunUltra(), machine.PentiumII(180)} {
		nd := node.New(cfg)
		for _, v := range []Version{Naive, Transposed} {
			b.Run(cfg.Name+"/"+v.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					Run(nd, n, v, 1)
				}
			})
		}
	}
}
