package sim

import (
	"fmt"
	"math/bits"
)

// bucket is a FIFO list of slots and the least time it holds; it is
// empty, its fields stale, while its bit in Queue.mask is clear.
type bucket struct {
	head, tail int32
	min        Time
}

// slot is one event's time and link: the next slot in its bucket or,
// while free, the next free slot plus one.
type slot struct {
	at   Time
	next int32
}

// Queue is the event queue behind both engines: a clock, a step count
// and a monotone radix queue (Ahuja et al., JACM 1990), generic over
// what an event runs. No event is queued before the clock, so an event
// at t goes in bucket bits.Len64(t ^ now), before every event of a
// higher bucket. Push appends to a bucket in O(1); Next pops bucket 0,
// the events at now, first moving the clock to the lowest bucket's
// least time and re-linking its slots in list order if bucket 0 is
// empty. Equal times share a bucket and buckets are FIFO, so events
// fire in (time, push order). Freed slots form a free list, so a grown
// queue allocates nothing per event.
type Queue[C any] struct {
	now     Time
	nsteps  uint64
	mask    uint64 // bit i set: bucket i is non-empty
	buckets [64]bucket
	free    int32 // head of the free list plus one; 0 when empty
	slots   []slot
	calls   []C
}

// Now reports the current simulated time.
func (q *Queue[C]) Now() Time { return q.now }

// Steps reports how many events have been dispatched.
func (q *Queue[C]) Steps() uint64 { return q.nsteps }

// Push queues c at absolute simulated time t, after every event already
// queued at t. Scheduling in the past is a model bug and panics: the
// clock never runs backwards.
//
//pmlint:hotpath
func (q *Queue[C]) Push(t Time, c C) {
	if t < q.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, q.now)) //pmlint:allow hotpath cold panic guard for a model bug, never taken per event
	}
	s := q.free - 1
	if s >= 0 {
		q.free = q.slots[s].next
		q.slots[s].at, q.calls[s] = t, c
	} else {
		s = int32(len(q.slots))
		q.slots, q.calls = append(q.slots, slot{at: t}), append(q.calls, c)
	}
	q.link(s, t)
}

// link appends slot s, holding time t, to the tail of its bucket.
func (q *Queue[C]) link(s int32, t Time) {
	i := bits.Len64(uint64(t^q.now)) & 63
	b := &q.buckets[i]
	if q.mask&(1<<i) == 0 {
		q.mask |= 1 << i
		b.head, b.min = s, t
	} else {
		q.slots[b.tail].next = s
		b.min = Min(b.min, t)
	}
	b.tail = s
}

// NextAt reports the earliest queued time, false when the queue is
// empty, and moves nothing: a caller may push events before that time.
func (q *Queue[C]) NextAt() (Time, bool) {
	if q.mask == 0 {
		return 0, false
	}
	return q.buckets[bits.TrailingZeros64(q.mask)&63].min, true
}

// Next removes the earliest event, advances the clock to it, counts the
// step and returns the event's callback for the caller to run. It
// reports false, changing nothing, when the queue is empty.
//
//pmlint:hotpath
func (q *Queue[C]) Next() (c C, ok bool) {
	if q.mask&1 == 0 {
		if q.mask == 0 {
			return c, false
		}
		q.advance()
	}
	b := &q.buckets[0]
	s := b.head
	if s == b.tail {
		q.mask &^= 1
	} else {
		b.head = q.slots[s].next
	}
	c, q.calls[s] = q.calls[s], *new(C) // release the callback for the GC
	q.slots[s].next, q.free = q.free, s+1
	q.nsteps++
	return c, true
}

// advance moves the clock to the least queued time, held by the lowest
// non-empty bucket, and re-links that bucket's slots in list order.
func (q *Queue[C]) advance() {
	i := bits.TrailingZeros64(q.mask) & 63
	b := q.buckets[i]
	q.mask &^= 1 << i
	q.now = b.min
	for s, n := b.head, int32(0); ; s = n {
		n = q.slots[s].next
		q.link(s, q.slots[s].at)
		if s == b.tail {
			return
		}
	}
}
