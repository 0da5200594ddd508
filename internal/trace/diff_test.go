package trace

import (
	"fmt"
	"testing"

	"powermanna/internal/sim"
)

// fuzzOccurrences decodes one byte per occurrence: the high nibble is
// the start and the low two bits the duration, a small alphabet so
// exact pairs are common. global is the index, which checkAlignment
// uses to tell occurrences apart.
func fuzzOccurrences(data []byte) []occurrence {
	occs := make([]occurrence, len(data))
	for i, b := range data {
		occs[i] = occurrence{start: sim.Time(b >> 4), dur: sim.Time(b & 3), global: i, ordinal: i}
	}
	return occs
}

// pairCost is the edit cost alignShape charges for pairing a with b.
func pairCost(a, b occurrence) int {
	if a.start != b.start || a.dur != b.dur {
		return alignShiftCost
	}
	return 0
}

// bruteAlignCost is the minimum edit cost of aligning as with bs, over
// every alignment.
func bruteAlignCost(as, bs []occurrence) int {
	switch {
	case len(as) == 0:
		return len(bs) * alignGapCost
	case len(bs) == 0:
		return len(as) * alignGapCost
	}
	return min(pairCost(as[0], bs[0])+bruteAlignCost(as[1:], bs[1:]),
		alignGapCost+bruteAlignCost(as[1:], bs),
		alignGapCost+bruteAlignCost(as, bs[1:]))
}

// checkAlignment aligns as with bs and checks that every occurrence of
// both is emitted exactly once and in order, returning the alignment's
// cost and how many pairs it made.
func checkAlignment(as, bs []occurrence) (cost, pairs int, err error) {
	nextA, nextB := 0, 0
	take := func(next *int, o occurrence, run string) {
		if err == nil && o.global != *next {
			err = fmt.Errorf("run %s occurrence %d emitted where %d was due", run, o.global, *next)
		}
		*next = o.global + 1
	}
	alignShape(as, bs,
		func(a, b occurrence) { take(&nextA, a, "A"); take(&nextB, b, "B"); cost += pairCost(a, b); pairs++ },
		func(a occurrence) { take(&nextA, a, "A"); cost += alignGapCost },
		func(b occurrence) { take(&nextB, b, "B"); cost += alignGapCost })
	if err == nil && (nextA != len(as) || nextB != len(bs)) {
		err = fmt.Errorf("emitted %d of %d A and %d of %d B occurrences", nextA, len(as), nextB, len(bs))
	}
	return cost, pairs, err
}

// FuzzAlignShape checks the trace-diff aligner on arbitrary occurrence
// sequences: it emits every occurrence of both runs once and in order,
// its cost is the brute-force minimum for up to 6 occurrences a side,
// and a sequence aligned with itself pairs every occurrence exactly.
func FuzzAlignShape(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0x10, 0x20, 0x30}, []byte{0x10, 0x30})
	f.Add([]byte{0x11, 0x22}, []byte{0x33, 0x11, 0x22})
	f.Add([]byte{0x05, 0x05, 0x05}, []byte{0x05, 0x15})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		const maxLen = 64 // keeps the O(n*m) table small
		if len(a) > maxLen || len(b) > maxLen {
			t.Skip()
		}
		as, bs := fuzzOccurrences(a), fuzzOccurrences(b)
		cost, _, err := checkAlignment(as, bs)
		if err != nil {
			t.Fatal(err)
		}
		if len(as) <= 6 && len(bs) <= 6 {
			if want := bruteAlignCost(as, bs); cost != want {
				t.Fatalf("alignment of %x with %x costs %d, minimum is %d", a, b, cost, want)
			}
		}
		self, pairs, err := checkAlignment(as, as)
		if err != nil {
			t.Fatalf("self-alignment: %v", err)
		}
		if self != 0 || pairs != len(as) {
			t.Fatalf("self-alignment of %x: cost %d, %d pairs; want 0 and %d", a, self, pairs, len(as))
		}
	})
}
