package mpl

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Collectives over binomial trees, in SPMD form: each rank derives its
// own role per tree level from its index. At level k a rank whose
// lowest set bit is k is a child (it exchanges with rank - 2^k), and a
// rank with all bits at or below k clear is a parent of rank + 2^k
// when that rank exists. Gather levels ascend, broadcast levels
// descend, so a rank always holds data before it forwards. Each rank's
// clock advances only through its own sends, receives and reduction
// arithmetic, so the collective's critical path — O(log P) message
// latencies — emerges from the point-to-point model.

// reduceOpCyclesPerElement is the per-element cost of combining two
// float64 values during a reduction (load, add, store on the MPC620).
const reduceOpCyclesPerElement = 3

// tag bases keep collective traffic from colliding with user tags.
const (
	tagBarrier = 1 << 20
	tagBcast   = 1 << 21
	tagReduce  = 1 << 22
	tagGather  = 1 << 23
)

// sendVec sends v's little-endian bytes to dst, encoded into the
// rank's scratch buffer (Send copies it into the message record).
func (r *PRank) sendVec(dst, tag int, v []float64) error {
	b := r.vecBuf[:0]
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	r.vecBuf = b
	return r.Send(dst, tag, b)
}

// recvVec receives a vector from src into dst[:0] and returns it. A
// payload that is not a whole number of float64s is an error.
func (r *PRank) recvVec(dst []float64, src, tag int) ([]float64, error) {
	b, err := r.Recv(src, tag)
	if err != nil {
		return nil, err
	}
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("mpl: rank %d got %d bytes from rank %d on tag %d, not a whole vector", r.rank, len(b), src, tag)
	}
	dst = dst[:0]
	for i := 0; i < len(b); i += 8 {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(b[i:])))
	}
	return dst, nil
}

// bits reports how many tree levels cover p ranks.
func bits(p int) int {
	n := 0
	for 1<<n < p {
		n++
	}
	return n
}

// Barrier synchronizes all ranks: a binomial gather to rank 0 followed
// by a binomial broadcast of the release. round keeps successive
// barriers' tags apart.
func (r *PRank) Barrier(round int) error {
	p, rank := r.Ranks(), r.rank
	tag := tagBarrier + 2*round
	for k := 0; 1<<k < p; k++ {
		span := 1 << (k + 1)
		switch {
		case rank%span == 1<<k:
			if err := r.Send(rank-1<<k, tag, nil); err != nil {
				return err
			}
		case rank%span == 0 && rank+1<<k < p:
			if _, err := r.Recv(rank+1<<k, tag); err != nil {
				return err
			}
		}
	}
	rel := tagBarrier + 2*round + 1
	for k := bits(p) - 1; k >= 0; k-- {
		span := 1 << (k + 1)
		switch {
		case rank%span == 1<<k:
			if _, err := r.Recv(rank-1<<k, rel); err != nil {
				return err
			}
		case rank%span == 0 && rank+1<<k < p:
			if err := r.Send(rank+1<<k, rel, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// Bcast distributes vec from rank 0 to all ranks and returns this
// rank's copy (rank 0 returns vec itself). Non-root ranks may pass
// nil. A non-root rank decodes into a vector it owns, so the result is
// valid until the rank's next collective (Bcast or AllReduce), which
// reuses it.
func (r *PRank) Bcast(vec []float64, tag int) ([]float64, error) {
	p, rank := r.Ranks(), r.rank
	data := vec
	has := rank == 0
	for k := bits(p) - 1; k >= 0; k-- {
		span := 1 << (k + 1)
		switch {
		case rank%span == 1<<k:
			v, err := r.recvVec(r.vec, rank-1<<k, tagBcast+tag)
			if err != nil {
				return nil, err
			}
			data, r.vec = v, v
			has = true
		case rank%span == 0 && rank+1<<k < p && has:
			if err := r.sendVec(rank+1<<k, tagBcast+tag, data); err != nil {
				return nil, err
			}
		}
	}
	return data, nil
}

// AllReduce sums each rank's vector element-wise and returns the
// global sum on every rank: binomial reduction to rank 0, one tag per
// level and reduceOpCyclesPerElement per combined element, then
// broadcast. The sum accumulates in a vector the rank owns: the result
// is valid until the rank's next collective (Bcast or AllReduce), which
// reuses it, and vec itself is left untouched.
func (r *PRank) AllReduce(vec []float64, tag int) ([]float64, error) {
	p, rank := r.Ranks(), r.rank
	n := len(vec)
	acc := append(r.vec[:0], vec...)
	r.vec = acc
	for k := 0; 1<<k < p; k++ {
		span := 1 << (k + 1)
		switch {
		case rank%span == 1<<k:
			if err := r.sendVec(rank-1<<k, tagReduce+tag+k, acc); err != nil {
				return nil, err
			}
		case rank%span == 0 && rank+1<<k < p:
			b, err := r.Recv(rank+1<<k, tagReduce+tag+k)
			if err != nil {
				return nil, err
			}
			if len(b) != 8*n {
				return nil, fmt.Errorf("mpl: rank %d reduce level %d got %d elements, want %d", rank, k, len(b)/8, n)
			}
			for i := range acc {
				acc[i] += math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
			}
			r.Compute(r.w.cycles(int64(n * reduceOpCyclesPerElement)))
		}
	}
	return r.Bcast(acc, tag)
}

// Gather collects every rank's vector at rank 0 (direct sends; fine for
// the sizes the examples use) and returns them in rank order at rank 0;
// other ranks return nil.
func (r *PRank) Gather(vec []float64, tag int) ([][]float64, error) {
	p, rank := r.Ranks(), r.rank
	if rank != 0 {
		if err := r.sendVec(0, tagGather+tag+rank, vec); err != nil {
			return nil, err
		}
		return nil, nil
	}
	out := make([][]float64, p)
	out[0] = vec
	for q := 1; q < p; q++ {
		v, err := r.recvVec(nil, q, tagGather+tag+q)
		if err != nil {
			return nil, err
		}
		out[q] = v
	}
	return out, nil
}

// CriticalDepth estimates the tree depth of a collective over p ranks —
// exported for tests asserting logarithmic scaling.
func CriticalDepth(p int) int { return bits(p) }
