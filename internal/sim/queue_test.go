package sim

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// refEvent is one event of the sorted reference queue. ids rise with
// push order, so sorting by time and inserting after equal times gives
// the order a Queue must dispatch in.
type refEvent struct {
	at Time
	id int
}

// checkQueueOps drives a Queue and a sorted reference through the
// operations encoded in ops, one byte each, and reports the first
// disagreement. The low three bits of a byte pick the operation and the
// rest, v, its argument:
//
//	0, 1  Next: the popped id and the clock must match the reference
//	2     NextAt: the peeked time must match the reference
//	3     push at now+v, a near event (a drain at now+1ps among them)
//	4     push at now+2^(v+9)+v, far events up to ~2^40 ps ahead
//	5     peek, then push before the peeked time, as psim merges posts
//	6     push within v ps of MaxTime
//	7     push at the time of a queued event: equal times pushed on
//	      both sides of the re-linking that splits their bucket
//
// A push past MaxTime is clamped to it. The queue is drained and
// compared at the end.
func checkQueueOps(ops []byte) error {
	var q Queue[int]
	var ref []refEvent
	push := func(id int, d Time) {
		at := q.Now() + d
		if at < q.Now() {
			at = MaxTime
		}
		q.Push(at, id)
		j := sort.Search(len(ref), func(k int) bool { return ref[k].at > at })
		ref = slices.Insert(ref, j, refEvent{at, id})
	}
	pop := func() error {
		id, ok := q.Next()
		if ok != (len(ref) > 0) {
			return fmt.Errorf("Next reported %v with %d events queued", ok, len(ref))
		}
		if ok {
			if id != ref[0].id || q.Now() != ref[0].at {
				return fmt.Errorf("Next = event %d at %v, want event %d at %v", id, q.Now(), ref[0].id, ref[0].at)
			}
			ref = ref[1:]
		}
		return nil
	}
	peek := func() error {
		at, ok := q.NextAt()
		if ok != (len(ref) > 0) || ok && at != ref[0].at {
			return fmt.Errorf("NextAt = %v, %v with reference %v", at, ok, ref)
		}
		return nil
	}
	for i, op := range ops {
		v := Time(op >> 3)
		var err error
		switch op & 7 {
		case 0, 1:
			err = pop()
		case 2:
			err = peek()
		case 3:
			push(i, v)
		case 4:
			push(i, 1<<(v+9)+v)
		case 5:
			if at, ok := q.NextAt(); ok {
				d := at - q.Now() // d*v/32 without overflow
				push(i, d/32*v+d%32*v/32)
			}
			err = peek()
		case 6:
			push(i, Max(MaxTime-v-q.Now(), 0))
		case 7:
			if len(ref) > 0 {
				push(i, ref[int(v)%len(ref)].at-q.Now())
			}
		}
		if err != nil {
			return fmt.Errorf("op %d (%#x): %w", i, op, err)
		}
	}
	for len(ref) > 0 {
		if err := pop(); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
	}
	return pop()
}

// queueCases are fixed operation strings: each kind alone, a far event
// re-linked past a drain chain, equal times pushed before and after the
// re-linking that splits their bucket, psim's peek-then-post, and
// events next to MaxTime.
var queueCases = [][]byte{
	{},
	{0, 2, 5},
	{3, 3, 3, 0, 0, 0},
	{4 | 31<<3, 3 | 1<<3, 0, 3 | 1<<3, 0, 2, 0},
	{4 | 11<<3, 4 | 11<<3, 4 | 3<<3, 0, 7, 7 | 1<<3, 7 | 2<<3, 0, 7, 0, 0, 0},
	{4 | 21<<3, 5 | 16<<3, 5 | 31<<3, 5, 2, 0, 5 | 8<<3, 0, 0},
	{6, 6 | 5<<3, 4 | 1<<3, 0, 6 | 31<<3, 7, 0, 3 | 31<<3, 0, 0},
}

// TestQueueMatchesSortedReference checks every pop and peek of random
// and fixed operation strings against a sorted reference: the (time,
// push order) dispatch order, the clock, NextAt, and the callback
// popped with each slot while freed slots are reused.
func TestQueueMatchesSortedReference(t *testing.T) {
	for _, ops := range queueCases {
		if err := checkQueueOps(ops); err != nil {
			t.Errorf("ops %x: %v", ops, err)
		}
	}
	f := func(ops []byte) bool { return checkQueueOps(ops) == nil }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// FuzzQueue runs checkQueueOps on fuzzed operation strings.
func FuzzQueue(f *testing.F) {
	for _, ops := range queueCases {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if err := checkQueueOps(ops); err != nil {
			t.Fatal(err)
		}
	})
}
