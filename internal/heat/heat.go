// Package heat is a distributed-memory scientific application of the
// kind the paper's introduction motivates ("applications in the field of
// high-performance scientific computing are being increasingly designed
// to run [on] parallel computers with distributed-memory architectures"):
// explicit time-stepping of the 1D heat equation, domain-decomposed
// across PowerMANNA nodes with per-step halo exchanges over the
// message-passing layer and periodic residual reductions.
//
// The solver is exact twice over: the parallel run produces bit-identical
// fields to the serial reference (same stencil arithmetic per cell), and
// its simulated time composes real computation cost (cycles per cell on
// the MPC620) with the simulated network's message timing — so strong
// scaling, and the point where halo latency overtakes shrinking
// per-node work, fall out of the models.
package heat

import (
	"encoding/binary"
	"fmt"
	"math"

	"powermanna/internal/mpl"
	"powermanna/internal/sim"
)

// Config describes one solve.
type Config struct {
	// Cells is the global 1D domain size (boundary cells are fixed at 0).
	Cells int
	// Steps is the number of explicit time steps.
	Steps int
	// Alpha is the stability factor dt·k/dx² (must be ≤ 0.5).
	Alpha float64
	// ComputeCyclesPerCell is the per-cell update cost on the node CPU:
	// two loads from the halo'd row, a fused multiply-add pair, a store.
	ComputeCyclesPerCell int64
	// ReduceEvery inserts a residual AllReduce every k steps (0 = never):
	// the global synchronization real solvers use for convergence checks.
	ReduceEvery int
}

// DefaultConfig returns a solver setup calibrated for the MPC620.
func DefaultConfig(cells, steps int) Config {
	return Config{
		Cells:                cells,
		Steps:                steps,
		Alpha:                0.25,
		ComputeCyclesPerCell: 6, // calibrated: 4 flops + loads on the 4-issue core
		ReduceEvery:          50,
	}
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.Cells < 3:
		return fmt.Errorf("heat: Cells = %d", c.Cells)
	case c.Steps <= 0:
		return fmt.Errorf("heat: Steps = %d", c.Steps)
	case c.Alpha <= 0 || c.Alpha > 0.5:
		return fmt.Errorf("heat: Alpha = %g violates stability", c.Alpha)
	case c.ComputeCyclesPerCell <= 0:
		return fmt.Errorf("heat: ComputeCyclesPerCell = %d", c.ComputeCyclesPerCell)
	case c.ReduceEvery < 0:
		return fmt.Errorf("heat: ReduceEvery = %d", c.ReduceEvery)
	}
	return nil
}

// initial sets the starting profile: a hot spike in the middle third.
func initial(cells int) []float64 {
	f := make([]float64, cells)
	initialBlock(f, cells, 0)
	return f
}

// initialBlock writes cells [lo, lo+len(dst)) of the cells-wide starting
// profile into dst, so a rank fills its own block without building the
// whole field.
func initialBlock(dst []float64, cells, lo int) {
	for i := range dst {
		if g := lo + i; g >= cells/3 && g < 2*cells/3 {
			dst[i] = 100
		} else {
			dst[i] = 0
		}
	}
}

// step advances one explicit Euler step on a slice with fixed-zero
// boundaries; src and dst include the boundary cells.
func step(dst, src []float64, alpha float64) {
	for i := 1; i < len(src)-1; i++ {
		dst[i] = src[i] + alpha*(src[i-1]-2*src[i]+src[i+1])
	}
}

// RunSerial computes the reference solution.
func RunSerial(cfg Config) ([]float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cur := initial(cfg.Cells)
	next := make([]float64, cfg.Cells)
	for s := 0; s < cfg.Steps; s++ {
		step(next, cur, cfg.Alpha)
		next[0], next[cfg.Cells-1] = 0, 0
		cur, next = next, cur
	}
	return cur, nil
}

// Result reports a parallel solve.
type Result struct {
	Field     []float64
	Makespan  sim.Time
	Ranks     int
	Messages  int64
	MsgBytes  int64
	CellsEach int
}

// Run solves the equation across all ranks of a message-passing world,
// one contiguous block per rank, exchanging one-cell halos every step.
func Run(w *mpl.World, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	p := w.Ranks()
	if cfg.Cells < 3*p {
		return Result{}, fmt.Errorf("heat: %d cells across %d ranks leaves blocks under 3 cells", cfg.Cells, p)
	}

	// Block decomposition; each rank holds [lo, hi) plus two halo cells.
	lo := make([]int, p)
	hi := make([]int, p)
	for r := 0; r < p; r++ {
		lo[r] = r * cfg.Cells / p
		hi[r] = (r + 1) * cfg.Cells / p
	}
	cur := make([][]float64, p)
	next := make([][]float64, p)
	for r := 0; r < p; r++ {
		n := hi[r] - lo[r]
		cur[r] = make([]float64, n+2)
		next[r] = make([]float64, n+2)
		initialBlock(cur[r][1:n+1], cfg.Cells, lo[r])
	}

	encode := func(v float64) []byte {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint64(b, math.Float64bits(v))
		return b
	}
	decode := func(b []byte) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}

	for s := 0; s < cfg.Steps; s++ {
		// Halo exchange: post all sends, then receive. Tags encode the
		// step and direction so rounds never cross-match.
		tagL, tagR := 2*s, 2*s+1
		for r := 0; r < p; r++ {
			n := hi[r] - lo[r]
			if r > 0 {
				if err := w.Send(r, r-1, tagR, encode(cur[r][1])); err != nil {
					return Result{}, err
				}
			}
			if r < p-1 {
				if err := w.Send(r, r+1, tagL, encode(cur[r][n])); err != nil {
					return Result{}, err
				}
			}
		}
		for r := 0; r < p; r++ {
			n := hi[r] - lo[r]
			if r > 0 {
				b, err := w.Recv(r, r-1, tagL)
				if err != nil {
					return Result{}, err
				}
				cur[r][0] = decode(b)
			} else {
				cur[r][0] = 0 // physical boundary
			}
			if r < p-1 {
				b, err := w.Recv(r, r+1, tagR)
				if err != nil {
					return Result{}, err
				}
				cur[r][n+1] = decode(b)
			} else {
				cur[r][n+1] = 0
			}
		}

		// Local update, charged to each rank's clock; the physical
		// boundaries stay pinned at zero exactly as in the serial code.
		for r := 0; r < p; r++ {
			n := hi[r] - lo[r]
			step(next[r], cur[r], cfg.Alpha)
			if r == 0 {
				next[r][1] = 0
			}
			if r == p-1 {
				next[r][n] = 0
			}
			w.Compute(r, sim.ClockMHz(180).Cycles(cfg.ComputeCyclesPerCell*int64(n)))
			cur[r], next[r] = next[r], cur[r]
		}

		// Periodic residual reduction (the convergence check).
		if cfg.ReduceEvery > 0 && (s+1)%cfg.ReduceEvery == 0 && p > 1 {
			contrib := make([][]float64, p)
			for r := 0; r < p; r++ {
				var sum float64
				for _, v := range cur[r][1 : hi[r]-lo[r]+1] {
					sum += v * v
				}
				contrib[r] = []float64{sum}
			}
			if _, err := w.AllReduce(contrib, 1000+s); err != nil {
				return Result{}, err
			}
		}
	}

	// Assemble the global field.
	out := make([]float64, cfg.Cells)
	for r := 0; r < p; r++ {
		copy(out[lo[r]:hi[r]], cur[r][1:hi[r]-lo[r]+1])
	}
	out[0], out[cfg.Cells-1] = 0, 0
	msgs, bytes := w.Stats()
	return Result{
		Field:     out,
		Makespan:  w.MaxTime(),
		Ranks:     p,
		Messages:  msgs,
		MsgBytes:  bytes,
		CellsEach: cfg.Cells / p,
	}, nil
}
