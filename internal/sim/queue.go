package sim

import "fmt"

// key is one queued event's heap entry: its time, its sequence number
// and the slot of its callback in Queue.calls.
type key struct {
	at   Time
	seq  uint64
	slot int32
}

// before is the heap order: (at, seq) ascending. seq breaks every time
// tie in scheduling order, so the order is total.
func before(a, b *key) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Queue is the event queue behind both engines: a clock, a sequence
// counter, a step count and a hand-rolled binary min-heap over
// (at, seq), generic over what an event runs. Scheduler is a
// Queue[func()]; each shard of the parallel engine in internal/psim is
// a Queue of its own callback type. The heap orders small pointer-free
// keys and sifts move a hole, one 24-byte key copy per level whatever
// an event carries; the callbacks stay put in a slot table. A popped
// event's slot index is parked in the key just past the end of the
// heap, so the keys beyond len(keys) up to len(calls) are the free
// slots, reused last-freed first, and a queue that has grown allocates
// nothing per event.
type Queue[C any] struct {
	now    Time
	seq    uint64
	nsteps uint64
	keys   []key
	calls  []C
}

// Now reports the current simulated time.
func (q *Queue[C]) Now() Time { return q.now }

// Steps reports how many events have been dispatched, a cheap progress
// and regression metric for tests.
func (q *Queue[C]) Steps() uint64 { return q.nsteps }

// Pending reports the number of events still queued.
func (q *Queue[C]) Pending() int { return len(q.keys) }

// Push queues c at absolute simulated time t, after every event already
// queued at t. Scheduling in the past is a model bug and panics: the
// clock never runs backwards.
//
//pmlint:hotpath
func (q *Queue[C]) Push(t Time, c C) {
	if t < q.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, q.now)) //pmlint:allow hotpath cold panic guard for a model bug, never taken per event
	}
	q.seq++
	n := len(q.keys)
	slot := int32(n)
	if n < len(q.calls) {
		slot = q.keys[:n+1][n].slot
		q.calls[slot] = c
	} else {
		q.calls = append(q.calls, c)
	}
	k := key{at: t, seq: q.seq, slot: slot}
	q.keys = append(q.keys, k)
	h := q.keys
	i := n
	for i > 0 {
		parent := (i - 1) / 2
		if !before(&k, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
}

// NextAt reports the time of the earliest queued event, and false when
// the queue is empty.
func (q *Queue[C]) NextAt() (Time, bool) {
	if len(q.keys) == 0 {
		return 0, false
	}
	return q.keys[0].at, true
}

// Next removes the earliest event, advances the clock to it, counts the
// step and returns the event's callback for the caller to run. It
// reports false, changing nothing, when the queue is empty.
//
//pmlint:hotpath
func (q *Queue[C]) Next() (c C, ok bool) {
	h := q.keys
	n := len(h) - 1
	if n < 0 {
		return c, false
	}
	top := h[0]
	last := h[n]
	q.keys = h[:n]
	i := 0
	for {
		least := 2*i + 1
		if least >= n {
			break
		}
		if right := least + 1; right < n && before(&h[right], &h[least]) {
			least = right
		}
		if !before(&h[least], &last) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = last
	h[n] = key{slot: top.slot}
	c = q.calls[top.slot]
	var zero C
	q.calls[top.slot] = zero // release the callback so the GC can collect it
	q.now = top.at
	q.nsteps++
	return c, true
}
