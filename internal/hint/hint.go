// Package hint implements the HINT benchmark (Gustafson & Snell, HICS'95)
// used in Figure 6 of the paper: hierarchical integration of
// ∫₀¹ (1−x)/(1+x) dx by adaptive interval refinement.
//
// HINT maintains a set of subintervals; at each step it splits the
// subinterval with the largest removable error into two halves, tightening
// the global lower and upper bounds. Quality is the reciprocal of the gap
// between the bounds; the reported metric is QUIPS — quality improvements
// per second — along the run time. Memory use grows linearly with quality,
// so the QUIPS-versus-time curve reads the memory hierarchy left to right:
// maximum processor performance while the working set is cached, sharp
// drops as it outgrows L1 and L2, and the memory-bandwidth floor at the
// right. The benchmark runs with DOUBLE (float64) or INT (fixed-point
// int64) arithmetic, the two variants of Figure 6a/6b.
//
// As everywhere in this reproduction, the functional computation is real —
// the bounds genuinely converge on 2·ln 2 − 1 — and drives the machine
// timing model access by access: a binary max-heap keyed on removable
// error supplies HINT's "more complex than consecutive" access pattern,
// and every heap and record access is classified by the node's caches.
package hint

import (
	"fmt"
	"math/bits"

	"powermanna/internal/sim"
)

// DataType selects the arithmetic variant of Figure 6.
type DataType uint8

const (
	// Double runs the float64 variant (Figure 6a).
	Double DataType = iota
	// Int runs the fixed-point int64 variant (Figure 6b).
	Int
)

// String renders the arithmetic variant as the paper spells it.
func (d DataType) String() string {
	if d == Double {
		return "DOUBLE"
	}
	return "INT"
}

// fixedOne is the fixed-point scale for the INT variant (Q32).
const fixedOne = int64(1) << 32

// Point is one sample of the QUIPS curve.
type Point struct {
	Time      sim.Time
	Intervals int
	Quality   float64
	QUIPS     float64
}

// Result is one HINT run on one machine.
type Result struct {
	Machine string
	Type    DataType
	Points  []Point
	// Lower and Upper are the final functional bounds on the integral.
	Lower, Upper float64
	// PeakQUIPS is the curve maximum (the paper's headline per machine).
	PeakQUIPS float64
}

// String summarizes the run: machine, variant, peak QUIPS and bounds.
func (r Result) String() string {
	return fmt.Sprintf("%s HINT(%s): peak %.3g QUIPS, %d samples, bounds [%.6f, %.6f]",
		r.Machine, r.Type, r.PeakQUIPS, len(r.Points), r.Lower, r.Upper)
}

// interval is one subinterval's functional record.
type interval struct {
	left, width   float64 // [left, left+width)
	fLeft, fRight float64
	err           float64 // removable error = (fLeft-fRight)*width
	// fixed-point mirrors for the INT variant
	ileft, iwidth, ifLeft, ifRight, ierr int64
}

// f is the HINT integrand, monotonically decreasing on [0,1].
func f(x float64) float64 { return (1 - x) / (1 + x) }

// fFixed is the Q32 fixed-point integrand: (ONE−x)·2³² / (ONE+x).
// x ∈ [0, ONE], so the numerator fits 33 bits and the 128-bit divide via
// bits.Div64 cannot overflow (hi < den always).
func fFixed(x int64) int64 {
	num := uint64(fixedOne - x)
	den := uint64(fixedOne + x)
	q, _ := bits.Div64(num>>32, num<<32, den)
	return int64(q)
}

// hintState is the functional benchmark state: a binary max-heap of
// intervals keyed on removable error, plus running bounds.
type hintState struct {
	heap           []interval
	lower, upper   float64
	ilower, iupper int64
}

// newHintState starts a run with the single root interval; the heap is
// allocated for capacity intervals so split never regrows it.
func newHintState(capacity int) *hintState {
	root := interval{left: 0, width: 1, fLeft: f(0), fRight: f(1)}
	root.err = (root.fLeft - root.fRight) * root.width
	root.ileft, root.iwidth = 0, fixedOne
	root.ifLeft, root.ifRight = fFixed(0), fFixed(fixedOne)
	root.ierr = mulFixed(root.ifLeft-root.ifRight, root.iwidth)
	s := &hintState{heap: append(make([]interval, 0, capacity), root)}
	// Bounds from the single interval: lower = f(right)*w, upper = f(left)*w.
	s.lower = root.fRight * root.width
	s.upper = root.fLeft * root.width
	s.ilower = mulFixed(root.ifRight, root.iwidth)
	s.iupper = mulFixed(root.ifLeft, root.iwidth)
	return s
}

// mulFixed computes (a·b)·2⁻³² exactly via a 128-bit product.
func mulFixed(a, b int64) int64 {
	neg := false
	ua, ub := uint64(a), uint64(b)
	if a < 0 {
		ua, neg = uint64(-a), !neg
	}
	if b < 0 {
		ub, neg = uint64(-b), !neg
	}
	hi, lo := bits.Mul64(ua, ub)
	res := int64(hi<<32 | lo>>32)
	if neg {
		return -res
	}
	return res
}

// quality is the reciprocal of the bound gap.
func (s *hintState) quality() float64 {
	gap := s.upper - s.lower
	if gap <= 0 {
		return 0
	}
	return 1 / gap
}

// split pops the max-error interval and replaces it with its halves,
// updating the bounds. It returns the heap positions touched, which the
// timing driver charges. The traversal indexes are appended to touched.
func (s *hintState) split(touched []int32) []int32 {
	// Pop root.
	top := s.heap[0]
	n := len(s.heap)
	s.heap[0] = s.heap[n-1]
	s.heap = s.heap[:n-1]
	touched = append(touched, 0)
	touched = s.siftDown(0, touched)

	// Remove top's contribution to the bounds.
	s.lower -= top.fRight * top.width
	s.upper -= top.fLeft * top.width
	s.ilower -= mulFixed(top.ifRight, top.iwidth)
	s.iupper -= mulFixed(top.ifLeft, top.iwidth)

	// Split.
	halfW := top.width / 2
	mid := top.left + halfW
	fMid := f(mid)
	ihalfW := top.iwidth / 2
	imid := top.ileft + ihalfW
	ifMid := fFixed(imid)

	leftChild := interval{
		left: top.left, width: halfW, fLeft: top.fLeft, fRight: fMid,
		ileft: top.ileft, iwidth: ihalfW, ifLeft: top.ifLeft, ifRight: ifMid,
	}
	leftChild.err = (leftChild.fLeft - leftChild.fRight) * halfW
	leftChild.ierr = mulFixed(leftChild.ifLeft-leftChild.ifRight, ihalfW)
	rightChild := interval{
		left: mid, width: halfW, fLeft: fMid, fRight: top.fRight,
		ileft: imid, iwidth: ihalfW, ifLeft: ifMid, ifRight: top.ifRight,
	}
	rightChild.err = (rightChild.fLeft - rightChild.fRight) * halfW
	rightChild.ierr = mulFixed(rightChild.ifLeft-rightChild.ifRight, ihalfW)

	for _, ch := range []interval{leftChild, rightChild} {
		s.lower += ch.fRight * ch.width
		s.upper += ch.fLeft * ch.width
		s.ilower += mulFixed(ch.ifRight, ch.iwidth)
		s.iupper += mulFixed(ch.ifLeft, ch.iwidth)
		s.heap = append(s.heap, ch)
		touched = s.siftUp(len(s.heap)-1, touched)
	}
	return touched
}

func (s *hintState) siftDown(i int, touched []int32) []int32 {
	for {
		l, r := 2*i+1, 2*i+2
		if l >= len(s.heap) {
			return touched
		}
		big := l
		touched = append(touched, int32(l))
		if r < len(s.heap) {
			touched = append(touched, int32(r))
			if s.heap[r].err > s.heap[l].err {
				big = r
			}
		}
		if s.heap[big].err <= s.heap[i].err {
			return touched
		}
		s.heap[i], s.heap[big] = s.heap[big], s.heap[i]
		i = big
	}
}

func (s *hintState) siftUp(i int, touched []int32) []int32 {
	for i > 0 {
		p := (i - 1) / 2
		touched = append(touched, int32(p))
		if s.heap[p].err >= s.heap[i].err {
			return touched
		}
		s.heap[i], s.heap[p] = s.heap[p], s.heap[i]
		i = p
	}
	return touched
}
