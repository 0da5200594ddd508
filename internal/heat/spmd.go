package heat

import (
	"encoding/binary"
	"fmt"
	"math"

	"powermanna/internal/mpl"
	"powermanna/internal/sim"
)

// RunPart solves the equation over a partitioned world: the same block
// decomposition, halo tags, stencil arithmetic, compute charges and
// residual reductions as Run, expressed as one SPMD function per rank
// instead of one loop over all ranks. The field is bit-identical to
// RunSerial; the makespan reflects the partitioned network's timing
// model (see the mpl.PWorld package comment for the differences from
// the legacy World).
func RunPart(w *mpl.PWorld, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	p := w.Ranks()
	if cfg.Cells < 3*p {
		return Result{}, fmt.Errorf("heat: %d cells across %d ranks leaves blocks under 3 cells", cfg.Cells, p)
	}

	encode := func(v float64) []byte {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint64(b, math.Float64bits(v))
		return b
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

		for s := 0; s < cfg.Steps; s++ {
			tagL, tagR := 2*s, 2*s+1
			if rank > 0 {
				if err := r.Send(rank-1, tagR, encode(cur[1])); err != nil {
					return err
				}
			}
			if rank < p-1 {
				if err := r.Send(rank+1, tagL, encode(cur[n])); err != nil {
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
		Field:     out,
		Makespan:  w.MaxTime(),
		Ranks:     p,
		Messages:  msgs,
		MsgBytes:  bytes,
		CellsEach: cfg.Cells / p,
	}, nil
}
