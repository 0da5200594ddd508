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
	Field    []float64
	Makespan sim.Time
	Ranks    int
	Messages int64
	MsgBytes int64
}

// RunPart solves the equation across all ranks of a message-passing
// world, one SPMD function per rank: each rank holds one contiguous
// block plus two halo cells, exchanges one-cell halos with its
// neighbours every step, charges ComputeCyclesPerCell per updated cell
// to its clock, and joins a residual AllReduce every ReduceEvery steps.
// The field is bit-identical to RunSerial at every rank and shard
// count; the makespan composes the cell-update cost with the network's
// message timing.
func RunPart(w *mpl.PWorld, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	p := w.Ranks()
	if cfg.Cells < 3*p {
		return Result{}, fmt.Errorf("heat: %d cells across %d ranks leaves blocks under 3 cells", cfg.Cells, p)
	}

	encode := func(b *[8]byte, v float64) []byte {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		return b[:]
	}
	decode := func(b []byte) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}

	// Each rank writes only its own block; the slice is read after the
	// engine has drained.
	out := make([]float64, cfg.Cells)
	err := w.Run(func(r *mpl.PRank) error {
		rank := r.Rank()
		lo, hi := rank*cfg.Cells/p, (rank+1)*cfg.Cells/p
		n := hi - lo
		cur := make([]float64, n+2)
		next := make([]float64, n+2)
		initialBlock(cur[1:n+1], cfg.Cells, lo)
		// Send copies the halo value, so one buffer serves every send.
		var halo [8]byte

		for s := 0; s < cfg.Steps; s++ {
			tagL, tagR := 2*s, 2*s+1
			if rank > 0 {
				if err := r.Send(rank-1, tagR, encode(&halo, cur[1])); err != nil {
					return err
				}
			}
			if rank < p-1 {
				if err := r.Send(rank+1, tagL, encode(&halo, cur[n])); err != nil {
					return err
				}
			}
			if rank > 0 {
				b, err := r.Recv(rank-1, tagL)
				if err != nil {
					return err
				}
				cur[0] = decode(b)
			} else {
				cur[0] = 0 // physical boundary
			}
			if rank < p-1 {
				b, err := r.Recv(rank+1, tagR)
				if err != nil {
					return err
				}
				cur[n+1] = decode(b)
			} else {
				cur[n+1] = 0
			}

			step(next, cur, cfg.Alpha)
			if rank == 0 {
				next[1] = 0
			}
			if rank == p-1 {
				next[n] = 0
			}
			r.Compute(sim.ClockMHz(180).Cycles(cfg.ComputeCyclesPerCell * int64(n)))
			cur, next = next, cur

			if cfg.ReduceEvery > 0 && (s+1)%cfg.ReduceEvery == 0 && p > 1 {
				var sum float64
				for _, v := range cur[1 : n+1] {
					sum += v * v
				}
				if _, err := r.AllReduce([]float64{sum}, 1000+s); err != nil {
					return err
				}
			}
		}
		copy(out[lo:hi], cur[1:n+1])
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	out[0], out[cfg.Cells-1] = 0, 0
	msgs, bytes := w.Stats()
	return Result{
		Field:    out,
		Makespan: w.MaxTime(),
		Ranks:    p,
		Messages: msgs,
		MsgBytes: bytes,
	}, nil
}
