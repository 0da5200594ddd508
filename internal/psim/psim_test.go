package psim

import (
	"fmt"
	"testing"
	"unsafe"

	"powermanna/internal/sim"
)

// TestShardMatchesSchedulerOrder drives the same event program — ties,
// reentrant scheduling, After chains — through a sim.Scheduler and a
// single psim shard and requires identical dispatch order.
func TestShardMatchesSchedulerOrder(t *testing.T) {
	program := func(e interface {
		sim.Engine
		After(d sim.Time, fn func())
	}) []string {
		var log []string
		emit := func(tag string) func() {
			return func() { log = append(log, fmt.Sprintf("%s@%v", tag, e.Now())) }
		}
		e.At(30*sim.Nanosecond, emit("c"))
		e.At(10*sim.Nanosecond, emit("a"))
		e.At(10*sim.Nanosecond, func() {
			log = append(log, fmt.Sprintf("b@%v", e.Now()))
			e.After(5*sim.Nanosecond, emit("b2"))
			e.At(e.Now(), emit("b-tie")) // same-time reschedule runs after queued ties
		})
		e.At(30*sim.Nanosecond, emit("c2"))
		e.Run()
		return log
	}

	want := program(sim.NewScheduler())
	got := program(NewEngine(1, 0).Shard(0))
	if len(want) == 0 {
		t.Fatal("reference program dispatched nothing")
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("shard order %v, scheduler order %v", got, want)
	}
}

// runFunc is the handler of a posted func(): it calls its payload.
type runFunc struct{}

func (runFunc) OnPost(_ *Shard, payload any) { payload.(func())() }

// ringLog runs a token-passing ring on eng — nodes spread round-robin
// over its shards, each hop between shards a cross-shard post at
// hopLat — and returns the per-node logs merged in (time, node) order.
// The same model on one shard (everything local) is the sequential
// reference.
func ringLog(eng *Engine, nodes, laps int, hopLat sim.Time) []string {
	shards := eng.Shards()
	logs := make([][]string, nodes)
	var hop func(node, count int) func()
	hop = func(node, count int) func() {
		return func() {
			sh := eng.Shard(node % shards)
			logs[node] = append(logs[node], fmt.Sprintf("n%d#%d@%v", node, count, sh.Now()))
			if count+1 >= laps*nodes {
				return
			}
			next := (node + 1) % nodes
			at := sh.Now() + hopLat
			if next%shards == node%shards {
				sh.At(at, hop(next, count+1))
			} else {
				eng.PostPayload(node%shards, next%shards, at, runFunc{}, hop(next, count+1))
			}
		}
	}
	eng.Shard(0).At(0, hop(0, 0))
	eng.Run()
	var merged []string
	for i := 0; i < laps*nodes; i++ {
		// One log entry lands per step in global time order; the ring has
		// one token, so concatenating per-hop is already time-ordered.
		merged = append(merged, logs[i%nodes][i/nodes])
	}
	return merged
}

// TestRingCrossShardEquivalence checks the conservative rounds end to
// end: a 6-node ring on 1, 2, 3 and 6 shards produces the identical
// event log, with the hop latency exactly at the lookahead floor.
func TestRingCrossShardEquivalence(t *testing.T) {
	const nodes, laps = 6, 5
	hop := DefaultLookahead()
	want := ringLog(NewEngine(1, 0), nodes, laps, hop)
	if len(want) != nodes*laps {
		t.Fatalf("reference ring dispatched %d hops, want %d", len(want), nodes*laps)
	}
	for _, shards := range []int{2, 3, 6} {
		got := ringLog(NewEngine(shards, hop), nodes, laps, hop)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%d shards: log %v, want %v", shards, got, want)
		}
	}
}

// TestMailboxMergeTieBreak posts same-time events from several source
// shards and checks they dispatch in (time, source shard, post order).
func TestMailboxMergeTieBreak(t *testing.T) {
	eng := NewEngine(4, sim.Microsecond)
	var got []string
	at := 2 * sim.Microsecond // beyond the first window [0, 1us)
	for src := 1; src < 4; src++ {
		src := src
		eng.Shard(src).At(0, func() {
			for k := 0; k < 2; k++ {
				tag := fmt.Sprintf("s%d.%d", src, k)
				eng.PostPayload(src, 0, at, runFunc{}, func() { got = append(got, tag) })
			}
		})
	}
	eng.Run()
	want := "[s1.0 s1.1 s2.0 s2.1 s3.0 s3.1]"
	if fmt.Sprint(got) != want {
		t.Fatalf("merge order %v, want %v", got, want)
	}
}

// TestPostInsideWindowPanics pins the conservative guard on every
// shard: posting below the posting shard's window end is a lookahead
// violation and must panic in the posting event — on the caller's
// shard and on a worker's — not silently corrupt the order. A post at
// the window end or beyond is legal.
func TestPostInsideWindowPanics(t *testing.T) {
	for _, tc := range []struct {
		src, dst int
		at       sim.Time // post time, the window being [0, 1us)
		panics   bool
	}{
		{0, 1, 500 * sim.Nanosecond, true},
		{1, 0, sim.Microsecond - 1, true},
		{2, 1, sim.Microsecond, false},
		{1, 2, 3 * sim.Microsecond, false},
	} {
		eng := NewEngine(3, sim.Microsecond)
		eng.Shard(tc.src).At(0, func() {
			defer func() {
				if r := recover(); (r != nil) != tc.panics {
					t.Errorf("shard %d posting at %v: recovered %v, want a panic: %v", tc.src, tc.at, r, tc.panics)
				}
			}()
			eng.PostPayload(tc.src, tc.dst, tc.at, runFunc{}, func() {})
		})
		eng.Run()
	}
}

// TestMinPostSlack pins the runtime slack record: the least post time
// minus posting-shard clock over PostPayload on every shard,
// sim.MaxTime before any post, and unchanged by local scheduling.
func TestMinPostSlack(t *testing.T) {
	eng := NewEngine(3, sim.Microsecond)
	if got := eng.MinPostSlack(); got != sim.MaxTime {
		t.Fatalf("slack before any post = %v, want sim.MaxTime", got)
	}
	h := &countHandler{}
	one := 1
	eng.Shard(1).At(3*sim.Microsecond, func() {
		eng.PostPayload(1, 0, 7*sim.Microsecond, runFunc{}, func() {})
		eng.Shard(1).At(3*sim.Microsecond, func() {}) // local: no slack
	})
	eng.Shard(2).At(5*sim.Microsecond, func() {
		eng.PostPayload(2, 0, 6500*sim.Nanosecond, h, &one)
	})
	eng.Run()
	if got, want := eng.MinPostSlack(), 1500*sim.Nanosecond; got != want {
		t.Fatalf("MinPostSlack = %v, want %v", got, want)
	}
}

// TestShardAtPastPanics mirrors the sequential scheduler's guard.
func TestShardAtPastPanics(t *testing.T) {
	sh := NewEngine(1, 0).Shard(0)
	sh.At(10*sim.Nanosecond, func() {})
	sh.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	sh.At(5*sim.Nanosecond, func() {})
}

// TestEngineStepsAndAccessors covers the bookkeeping surface.
func TestEngineStepsAndAccessors(t *testing.T) {
	eng := NewEngine(3, 0)
	if eng.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3", eng.Shards())
	}
	for i := 0; i < 3; i++ {
		eng.Shard(i).At(sim.Time(i+1)*sim.Nanosecond, func() {})
	}
	if at, ok := eng.Shard(0).NextAt(); !ok || at != sim.Nanosecond {
		t.Fatalf("NextAt() = %v, %v, want 1ns, true", at, ok)
	}
	eng.Run()
	if eng.Steps() != 3 {
		t.Fatalf("Steps() = %d, want 3", eng.Steps())
	}
}

// TestParseKind pins the flag surface.
func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
		ok   bool
	}{{"seq", Seq, true}, {"", Seq, true}, {"par", Par, true}, {"bogus", Seq, false}} {
		got, err := ParseKind(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	if Seq.String() != "seq" || Par.String() != "par" {
		t.Errorf("Kind strings = %q/%q", Seq.String(), Par.String())
	}
}

// tagHandler records the payloads it receives, in dispatch order.
type tagHandler struct{ got *[]string }

func (h tagHandler) OnPost(_ *Shard, payload any) { *h.got = append(*h.got, *payload.(*string)) }

// TestPayloadEventsKeepOrder pins that payload events take the same
// places in push order as closures: AtPost interleaves with At in call
// order, and posts to different handlers keep posting order per source.
func TestPayloadEventsKeepOrder(t *testing.T) {
	eng := NewEngine(3, sim.Microsecond)
	var got []string
	h := tagHandler{&got}
	tags := []string{"a0", "p1", "a2", "p3", "s1.c", "s1.p", "s2.p", "s2.c"}
	at := 2 * sim.Microsecond
	sh := eng.Shard(0)
	sh.At(0, func() {
		sh.At(at, func() { got = append(got, tags[0]) })
		sh.AtPost(at, h, &tags[1])
		sh.At(at, func() { got = append(got, tags[2]) })
		sh.AtPost(at, h, &tags[3])
	})
	eng.Shard(1).At(0, func() {
		eng.PostPayload(1, 0, 3*sim.Microsecond, runFunc{}, func() { got = append(got, tags[4]) })
		eng.PostPayload(1, 0, 3*sim.Microsecond, h, &tags[5])
	})
	eng.Shard(2).At(0, func() {
		eng.PostPayload(2, 0, 3*sim.Microsecond, h, &tags[6])
		eng.PostPayload(2, 0, 3*sim.Microsecond, runFunc{}, func() { got = append(got, tags[7]) })
	})
	eng.Run()
	if fmt.Sprint(got) != fmt.Sprint(tags) {
		t.Fatalf("dispatch order %v, want %v", got, tags)
	}
}

// countHandler sums the payloads it receives.
type countHandler struct{ n int }

func (h *countHandler) OnPost(_ *Shard, payload any) { h.n += *payload.(*int) }

// TestPostDeliverAllocatesNothing pins the mailbox path to zero heap
// allocations per event once its buffers have grown: payload posts of
// a closure and of a pointer, the inbox merge and local payload
// events.
func TestPostDeliverAllocatesNothing(t *testing.T) {
	eng := NewEngine(2, DefaultLookahead())
	// Serial: a parallel Run starts its worker goroutines once per Run,
	// and this test runs a few rounds per Run.
	// TestParallelRoundsAllocateNothing pins the parallel rounds; the
	// merge is the same.
	eng.SetSerial(true)
	src, dst := eng.Shard(0), eng.Shard(1)
	h := &countHandler{}
	one := 1
	bump := func() { h.n++ }
	fire := func() {
		at := src.Now() + eng.Lookahead()
		eng.PostPayload(0, 1, at, h, &one)
		eng.PostPayload(0, 1, at, runFunc{}, bump)
		eng.PostPayload(0, 1, at+1, h, &one)
		src.AtPost(src.Now()+1, h, &one)
	}
	step := func() {
		src.At(dst.Now()+sim.Microsecond, fire)
		eng.Run()
	}
	for i := 0; i < 10; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("%v allocations per post round, want 0", allocs)
	}
	if want := 4 * (10 + 101); h.n != want {
		t.Errorf("handler saw %d events, want %d", h.n, want)
	}
}

// TestBarrierLinesArePadded pins the barrier's cache-line layout: a
// status slot and a waiter fill whole 64-byte lines, and every outbox
// row of an odd shard count starts a line of its own, so no two shards
// write one line.
func TestBarrierLinesArePadded(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n%64 != 0 {
		t.Errorf("slot is %d bytes, want a multiple of 64", n)
	}
	if n := unsafe.Sizeof(waiter{}); n%64 != 0 {
		t.Errorf("waiter is %d bytes, want a multiple of 64", n)
	}
	eng := NewEngine(3, DefaultLookahead())
	for i := range eng.slots {
		if off := uintptr(unsafe.Pointer(&eng.slots[i].out[0])) - uintptr(unsafe.Pointer(&eng.slots[0].out[0])); off%64 != 0 {
			t.Errorf("outbox row %d starts %d bytes into the slab, want a multiple of 64", i, off)
		}
	}
}
