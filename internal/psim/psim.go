// Package psim is the parallel discrete-event engine: the event space
// is split into shards, each running on its own sim.Queue — the one
// event queue internal/sim's sequential Scheduler also runs on, a
// monotone radix queue with O(1) pushes that fires equal times in push
// order — and synchronized through conservative lookahead windows
// (null-message-free barrier rounds). Cross-shard events travel through
// source-owned outboxes, one per shard pair, and each destination
// merges its inbox after the barrier with a deterministic (time, source
// shard, post order) tie-break, so a sharded run dispatches exactly the
// events a sequential run would — trace, metrics and stdout stay
// byte-identical to a sequential Scheduler run. The root package's
// golden tests pin that equivalence by running the pmfault/pmtrace
// goldens through both engines.
//
// Rounds are symmetric: no goroutine coordinates the others. A parallel
// Run gives every shard beyond shard 0 a worker goroutine for its whole
// duration, and the caller drives shard 0. At the end of its window
// each shard publishes its next event time into a cache-line-padded
// status slot of its own, beside the outbox row it filled, and waits,
// spinning then parking, until every shard has published the round.
// Every shard then computes the same next window from the slots,
// merges its own inbox and runs. Serial and single-shard engines, and
// GOMAXPROCS 1, run the same loop with every shard on the caller. The
// workers are joined before Run returns.
//
// The conservative contract: during a barrier round every shard may
// freely execute events before the round's window end, because no
// other shard can inject an event below it — the lookahead is the
// minimum latency of any cross-shard interaction. The model that posts
// across shards supplies it. The partitioned interconnect
// (internal/netsim) derives it from its topology: where every link
// between a node group and the central crossbar stage crosses
// asynchronous transceivers, as in System256, a cross-shard event lies
// at least a route setup plus one transceiver wire crossing in the
// future; otherwise it falls back to DefaultLookahead, the
// synchronous-link floor of one route setup plus one link byte period.
// Every post records its slack — post time minus the posting shard's
// clock — and MinPostSlack reports the least one, so tests can check
// the bound a model claims against the run it made. Partitions that
// exchange no events at all — the fault campaigns' rate rows, the
// paper figures' per-machine series — go through RunRows, the single
// entry point for independent partitions: a fresh sequential scheduler
// per row under Seq, one shard per row of an unbounded-window
// (lookahead 0) engine under Par, which degenerates to one round
// between the start and end barriers: the embarrassingly-parallel fast
// path.
//
// Each Shard implements sim.Engine (Now, At, After, Run), so models
// written against the sequential scheduler (EARTH, the campaign
// drivers) run unchanged on a shard. Everything a shard's events touch
// must be shard-local; the pmlint --report audit (sharedstate and
// friends) is the static gate on that, and the per-row construction
// behind RunRows is the dynamic pattern: one network, one injector,
// one accounting row per shard in internal/fault, one node per series
// in internal/experiments.
package psim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"powermanna/internal/link"
	"powermanna/internal/sim"
	"powermanna/internal/xbar"
)

// Kind selects the execution engine behind a campaign or tool run:
// the --engine=seq|par flag of pmfault, pmtrace and pmbench.
type Kind int

const (
	// Seq is the sequential engine: one event queue, today's default.
	Seq Kind = iota
	// Par is the sharded parallel engine in this package.
	Par
)

// String renders the CLI spelling.
func (k Kind) String() string {
	if k == Par {
		return "par"
	}
	return "seq"
}

// ParseKind maps the --engine flag value to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "seq", "":
		return Seq, nil
	case "par":
		return Par, nil
	}
	return Seq, fmt.Errorf("psim: unknown engine %q (want seq or par)", s)
}

// DefaultLookahead is the synchronous-link floor of the conservative
// window width for node-sharded models: the minimum simulated latency
// of any cross-shard message when nothing more is known about the
// links it crosses. Before a message started in one window can perturb
// another shard it must at least claim a crossbar route (RouteSetup)
// and put its first byte on a wire (BytePeriod), so events inside the
// window are safe to dispatch without hearing from other shards. A
// model that knows its cross-shard wires are longer — netsim's
// partitioned network over asynchronous inter-cluster links — derives
// a wider window and keeps this one as its fallback.
func DefaultLookahead() sim.Time {
	return xbar.RouteSetup + link.BytePeriod
}

// callback is what a scheduled event runs. A payload event (AtPost,
// PostPayload) runs h.OnPost(shard, arg); a plain event (At) has
// a nil h and carries its func() in arg — a func value is
// pointer-shaped, so storing it in an interface does not allocate.
type callback struct {
	h   Handler
	arg any
}

// fire runs the callback on shard s.
func (c callback) fire(s *Shard) {
	if c.h != nil {
		c.h.OnPost(s, c.arg)
		return
	}
	c.arg.(func())()
}

// Shard is one partition of the event space: a private sim.Queue —
// radix queue, clock and step count. It implements
// sim.Engine, so model code written against the sequential scheduler
// runs unchanged on a shard. A shard's state — and everything its
// events touch — belongs to the one goroutine that drives the shard
// for a whole Run; the engine is the only cross-shard channel.
type Shard struct {
	sim.Queue[callback]
	// minSlack is the least (post time − now) of this shard's
	// cross-shard posts, sim.MaxTime before the first. Only the shard's
	// own goroutine writes it: shards post concurrently.
	minSlack sim.Time
	// horizon is the end of the window the shard is running, sim.MaxTime
	// outside one; PostPayload checks the shard's posts against it.
	horizon sim.Time
	// out is the outbox row the shard's posts go to in this window: one
	// box per destination shard.
	out []box
}

// At schedules fn on this shard at absolute simulated time t.
// Scheduling in the past is a model bug and panics.
//
//pmlint:hotpath
func (s *Shard) At(t sim.Time, fn func()) { s.Push(t, callback{arg: fn}) }

// AtPost schedules payload for the handler h on this shard at absolute
// simulated time t: the shard-local form of Engine.PostPayload, taking
// the same place in the queue's push order At would, so event order is
// unchanged. A model that schedules one bound handler with pooled
// payloads instead of a fresh closure per event allocates nothing per
// event.
func (s *Shard) AtPost(t sim.Time, h Handler, payload any) {
	s.Push(t, callback{h: h, arg: payload})
}

// After schedules fn to run d after the shard's current time.
//
//pmlint:hotpath
func (s *Shard) After(d sim.Time, fn func()) { s.At(s.Now()+d, fn) }

// Step dispatches the shard's next event, advancing its clock to it.
// It reports whether an event was dispatched.
//
//pmlint:hotpath
func (s *Shard) Step() bool {
	c, ok := s.Next()
	if ok {
		c.fire(s)
	}
	return ok
}

// Run dispatches the shard's events until its queue is empty. Model
// code may call it reentrantly from inside an event (EARTH's runtime
// does); with cross-shard traffic it is only safe on an unbounded
// window, because it ignores the engine's window end.
func (s *Shard) Run() {
	for s.Step() {
	}
}

// Shards cannot exist outside an engine, so the interface check lives
// here: every shard is a drop-in sequential scheduler.
var _ sim.Engine = (*Shard)(nil)

// Handler consumes cross-shard payloads on the destination shard: the
// data-not-closures discipline for models whose cross-shard messages
// carry state (the split-phase send continuations of internal/netsim).
// A Handler is owned by the destination shard; the payload it receives
// crossed the mailbox as plain data, so the static shard-safety audit
// (pmlint sharedstate) sees no source-shard captures travelling with
// it. OnPost runs on the destination shard's worker with the shard
// clock at the posted time.
type Handler interface {
	OnPost(s *Shard, payload any)
}

// post is one cross-shard event waiting in an outbox: its time and
// callback.
type post struct {
	at sim.Time
	callback
}

// box holds the posts one shard made for one destination in one
// window, in post order, and the least of their times (sim.MaxTime
// while it is empty).
type box struct {
	posts []post
	least sim.Time
}

// slot is what one shard publishes at the barriers of one round parity:
// the time of its earliest queued event (sim.MaxTime when it has none),
// whether one of its events panicked, and the outbox row it filled in
// the window before, one box per destination. Only the shard writes a
// slot, and only before it stores round; the others read it only after
// loading round. Two slots per shard, by round parity, let a fast shard
// publish round k+1 while a slow one still reads round k. The pad keeps
// every slot on a cache line of its own.
type slot struct {
	round  atomic.Uint64
	next   sim.Time
	failed bool
	out    []box
	_      [16]byte
}

// waiter is the park state of the goroutine that drives one shard, on a
// cache line of its own: parked is set only while it sleeps on wake,
// and every publishing shard reads it.
type waiter struct {
	parked atomic.Bool
	wake   chan struct{}
	// failure is the panic value of an event on a worker's shard, set
	// before the worker publishes its failed status.
	failure any
	_       [32]byte
}

// Engine coordinates shards through conservative barrier rounds. One
// round: every shard publishes its status, waits for the others, opens
// the same window — the globally earliest pending event plus the
// lookahead — merges its own inbox and dispatches its sub-window
// events, concurrently with the others. With lookahead 0 the window is
// unbounded — a single round, the right mode for partitions that
// exchange no events (campaign rate rows).
type Engine struct {
	shards    []*Shard
	lookahead sim.Time
	// serial drives every shard on the calling goroutine, shard 0 first
	// — the --engine seq execution of a partitioned model. The event
	// program (window ends, inbox merges, push order) is identical to
	// the parallel one, so serial and parallel runs of a shard-confined
	// model produce byte-identical histories; serial is also safe to
	// drive from inside another engine's event (nested engines), because
	// it starts no goroutine.
	serial bool
	// slots[2*i+p] is shard i's status for rounds of parity p.
	slots []slot
	// waiters[i] parks the goroutine driving shard i.
	waiters []waiter
	// rounds counts windows; solo counts those with at most one active
	// shard. Both are pure functions of the model; only the goroutine
	// driving shard 0 writes them.
	rounds, solo uint64
	// done joins a parallel Run's workers.
	done sync.WaitGroup
}

// NewEngine builds an engine with n shards. A lookahead > 0 sets the
// conservative window width for models with cross-shard traffic
// (DefaultLookahead is the interconnect's synchronous-link floor);
// lookahead 0 means the shards are independent partitions and the
// whole run is one unbounded window.
func NewEngine(n int, lookahead sim.Time) *Engine {
	if n < 1 {
		panic("psim: engine needs at least one shard")
	}
	e := &Engine{
		shards:    make([]*Shard, n),
		lookahead: lookahead,
		slots:     make([]slot, 2*n),
		waiters:   make([]waiter, n),
	}
	// One slab holds every outbox row, each padded to an even box count:
	// two 32-byte boxes fill a 64-byte line, so no two rows share one.
	stride := n + n%2
	boxes := make([]box, len(e.slots)*stride)
	for i := range boxes {
		boxes[i].least = sim.MaxTime
	}
	for i := range e.slots {
		e.slots[i].out = boxes[i*stride : i*stride+n : i*stride+n]
	}
	for i := range e.shards {
		e.shards[i] = &Shard{minSlack: sim.MaxTime, horizon: sim.MaxTime}
		e.waiters[i].wake = make(chan struct{}, 1)
	}
	return e
}

// RunRows runs n independent rows — partitions that exchange no
// events, such as a campaign's rate rows or a figure's per-machine
// series — and returns once every row has drained. setup(i, e)
// schedules row i's events on e without dispatching them. Under Seq
// (and for a single row) each row gets a fresh sim.Scheduler, set up
// and run to completion in row order on the calling goroutine. Under
// Par row i is shard i of one lookahead-0 engine: every row is set up,
// then one unbounded round runs them concurrently. A row's events
// may touch only row-confined state, which the caller reads after the
// join. A panic in any row reaches the caller, and no worker outlives
// the call.
func RunRows(k Kind, n int, setup func(i int, e sim.Engine)) {
	if k != Par || n < 2 {
		for i := 0; i < n; i++ {
			s := sim.NewScheduler()
			setup(i, s)
			s.Run()
		}
		return
	}
	e := NewEngine(n, 0)
	for i, s := range e.shards {
		setup(i, s)
	}
	e.Run()
}

// SetSerial switches the engine between parallel dispatch (the
// default: one goroutine per shard for each Run) and serial dispatch
// (every shard driven by the calling goroutine, in shard order). Both
// produce the same history; serial is the sequential execution of a
// partitioned model and the only safe mode inside another engine's
// event.
func (e *Engine) SetSerial(on bool) { e.serial = on }

// Lookahead reports the engine's conservative window width.
func (e *Engine) Lookahead() sim.Time { return e.lookahead }

// Shards reports the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// Shard returns shard i.
func (e *Engine) Shard(i int) *Shard { return e.shards[i] }

// Steps reports the total events dispatched across all shards.
func (e *Engine) Steps() uint64 {
	var n uint64
	for _, s := range e.shards {
		n += s.Steps()
	}
	return n
}

// Rounds reports how many barrier rounds (windows) Run has driven.
func (e *Engine) Rounds() uint64 { return e.rounds }

// SoloRounds reports how many of those rounds had at most one shard
// with an event in the window, queued or in its inbox.
func (e *Engine) SoloRounds() uint64 { return e.solo }

// MinPostSlack reports the least slack of any cross-shard post so far:
// the post time minus the posting shard's clock, minimized over
// PostPayload on every shard (sim.MaxTime when nothing was posted).
// It is a pure function of the model, like the post times themselves.
// A model whose cross-shard latency really is at least the lookahead
// keeps it at or above Lookahead; the PostPayload panic catches only the
// posts that land inside the current window, so the slack is the
// stronger check.
func (e *Engine) MinPostSlack() sim.Time {
	min := sim.MaxTime
	for _, s := range e.shards {
		if s.minSlack < min {
			min = s.minSlack
		}
	}
	return min
}

// noteSlack records one post's slack on the posting shard.
func (s *Shard) noteSlack(t sim.Time) {
	if d := t - s.Now(); d < s.minSlack {
		s.minSlack = d
	}
}

// PostPayload schedules payload for delivery to the destination-owned
// handler h on shard dst at absolute time t, from model code running on
// shard src during a round. The conservative contract: t must lie at or
// beyond the end of src's current window, because dst may already have
// dispatched past any earlier time — violating it is a lookahead bug in
// the model (its cross-shard latency is smaller than the engine's
// lookahead) and panics.
//
//pmlint:hotpath
func (e *Engine) PostPayload(src, dst int, t sim.Time, h Handler, payload any) {
	s := e.shards[src]
	if t < s.horizon {
		panic(fmt.Sprintf("psim: shard %d posting payload to shard %d at %v inside the window ending %v: model latency below the configured lookahead", src, dst, t, s.horizon)) //pmlint:allow hotpath cold panic guard for a lookahead violation, never taken per event
	}
	s.noteSlack(t)
	b := &s.out[dst]
	b.posts = append(b.posts, post{at: t, callback: callback{h: h, arg: payload}})
	b.least = min(b.least, t)
}

// Run drives barrier rounds until every shard queue and inbox is
// empty. A parallel Run starts one worker goroutine per shard beyond
// shard 0, which the caller drives, and every goroutine runs the same
// round loop (drive); the only cross-goroutine data flow is the status
// slots and the outboxes they publish. Serial and single-shard engines,
// and hosts with GOMAXPROCS 1, drive every shard on the caller and
// start no goroutine. Run joins its workers before it returns, a panic
// unwinding through it included. A panic in an event on a worker's
// shard ends every shard's loop at the next barrier and is re-raised on
// the caller.
func (e *Engine) Run() {
	var k uint64 // the last round published, by a Run before this one
	for i := range e.slots {
		k = max(k, e.slots[i].round.Load())
	}
	n := len(e.shards)
	if e.serial || n == 1 || runtime.GOMAXPROCS(0) == 1 {
		e.drive(0, n, k)
		return
	}
	e.done.Add(n - 1)
	for i := 1; i < n; i++ {
		go e.work(i, k)
	}
	unwinding := true
	defer func() {
		if unwinding {
			e.fail(0)
			e.done.Wait()
		}
	}()
	e.drive(0, 1, k)
	unwinding = false
	e.done.Wait()
	for i := range e.waiters {
		if r := e.waiters[i].failure; r != nil {
			e.waiters[i].failure = nil
			panic(r)
		}
	}
}

// work drives shard i on a worker goroutine for one parallel Run. A
// panicking event ends it: it records the panic value and publishes a
// failed status, so every shard leaves its loop at the next barrier and
// the caller re-raises the panic once it has joined the workers.
func (e *Engine) work(i int, k uint64) {
	defer e.done.Done()
	defer func() {
		if r := recover(); r != nil {
			e.waiters[i].failure = r
			e.fail(i)
		}
	}()
	e.drive(i, i+1, k)
}

// drive is the round loop of the goroutine that owns shards [lo, hi),
// after round k: one shard per goroutine in a parallel Run, every shard
// on the caller otherwise. A round publishes each owned shard's status,
// waits until every shard has published the round, and plans the
// window from the slots — every goroutine computes the same one. Then
// each owned shard merges its inbox, empties the outbox row it is about
// to fill and runs its window. The loop ends in the first round whose
// slots show no pending event or a failed shard, leaving both outbox
// rows of every owned shard empty. It is the parallel engine's
// event-handler root beside runWindow: every callback runs below it.
//
//pmlint:root
func (e *Engine) drive(lo, hi int, k uint64) {
	for {
		k++
		p := int(k & 1)
		for i := lo; i < hi; i++ {
			e.publish(i, k, false)
		}
		e.await(lo, k)
		end, active, ok := e.plan(p)
		for i := lo; i < hi; i++ {
			empty(e.slots[2*i+1-p].out)
		}
		if !ok {
			return
		}
		if lo == 0 {
			e.rounds++
			if active <= 1 {
				e.solo++
			}
		}
		for i := lo; i < hi; i++ {
			e.merge(i, p)
			e.shards[i].runWindow(end, e.slots[2*i+1-p].out)
		}
	}
}

// publish writes shard i's status for round k, then the round number
// that releases it, then wakes every parked goroutine: the Dekker
// store-then-load against await's park.
func (e *Engine) publish(i int, k uint64, failed bool) {
	sl := &e.slots[2*i+int(k&1)]
	sl.next = sim.MaxTime
	if at, ok := e.shards[i].NextAt(); ok {
		sl.next = at
	}
	sl.failed = failed
	sl.round.Store(k)
	for j := range e.waiters {
		if w := &e.waiters[j]; j != i && w.parked.Load() {
			kick(w.wake)
		}
	}
}

// fail publishes a failed status for shard i in the round after the
// last one it published, the barrier every other shard meets next.
func (e *Engine) fail(i int) {
	k := max(e.slots[2*i].round.Load(), e.slots[2*i+1].round.Load())
	e.publish(i, k+1, true)
}

// await blocks the goroutine driving shard i until every shard has
// published round k: a bounded spin, then a park.
func (e *Engine) await(i int, k uint64) {
	var sp spinner
	w := &e.waiters[i]
	for !e.published(k) {
		if sp.spin() {
			continue
		}
		w.parked.Store(true)
		if !e.published(k) {
			<-w.wake
		}
		w.parked.Store(false)
	}
}

// published reports whether every shard has published round k.
func (e *Engine) published(k uint64) bool {
	for i := int(k & 1); i < len(e.slots); i += 2 {
		if e.slots[i].round.Load() < k {
			return false
		}
	}
	return true
}

// plan reads the slots of round parity p and returns the round's
// window end: the earliest pending event, queued on a shard or posted
// to it, plus the lookahead (sim.MaxTime when the lookahead is 0).
// active counts the shards with an event in the window. ok is false
// when no event is pending or a shard failed: the run is over.
func (e *Engine) plan(p int) (end sim.Time, active int, ok bool) {
	first := sim.MaxTime
	for j := range e.shards {
		if e.slots[2*j+p].failed {
			return 0, 0, false
		}
		first = min(first, e.due(j, p))
	}
	if first == sim.MaxTime {
		return 0, 0, false
	}
	end = sim.MaxTime
	if e.lookahead > 0 {
		end = first + e.lookahead
	}
	for j := range e.shards {
		if e.due(j, p) < end {
			active++
		}
	}
	return end, active, true
}

// due is shard j's earliest pending event in round parity p: the least
// of its queue's next time and the posts every shard made for it.
func (e *Engine) due(j, p int) sim.Time {
	t := e.slots[2*j+p].next
	for i := range e.shards {
		t = min(t, e.slots[2*i+p].out[j].least)
	}
	return t
}

// merge pushes shard i's inbox of round parity p into its queue: every
// source's box in shard order, each in post order. The queue fires
// equal times in push order, so the posts dispatch in the deterministic
// cross-shard tie-break — ascending (time, source shard, post order) —
// a pure function of the model, never of goroutine timing. Posts enter
// the queue as they are, payload posts as payload events, and through
// Push, so its past-time guard covers every merge.
func (e *Engine) merge(i, p int) {
	s := e.shards[i]
	for src := range e.shards {
		for _, q := range e.slots[2*src+p].out[i].posts {
			s.Push(q.at, q.callback)
		}
	}
}

// empty resets an outbox row whose destinations have merged it,
// dropping the callbacks so the GC can collect them; a row keeps its
// buffers, so a round allocates nothing once they have grown.
func empty(row []box) {
	for j := range row {
		if b := &row[j]; b.least != sim.MaxTime {
			clear(b.posts)
			b.posts, b.least = b.posts[:0], sim.MaxTime
		}
	}
}

// runWindow dispatches every queued callback strictly below the window
// end, with the shard's posts going to out. It is the parallel engine's
// event-handler root — each callback it invokes was scheduled through
// At/After or posted through an outbox.
//
//pmlint:root
func (s *Shard) runWindow(end sim.Time, out []box) {
	s.horizon, s.out = end, out
	for {
		if at, ok := s.NextAt(); !ok || at >= end {
			break
		}
		c, _ := s.Next()
		c.fire(s)
	}
	s.horizon = sim.MaxTime
}

// spinBudget bounds every busy-wait of the barrier: a shard waiting
// for the others polls for at most this long before parking. It spans
// the gap between the back-to-back rounds of a busy run without holding
// a processor through a long idle stretch. A fixed poll count does not:
// polls are so cheap that any count small enough to bound the wait
// parks between rounds of the same burst.
const spinBudget = 50 * time.Microsecond

// spinYield is how many polls a spinning waiter makes between
// runtime.Gosched calls, so a waiter never starves a goroutine the
// round is waiting for when shards outnumber processors.
const spinYield = 64

// hostNow reads the host's monotonic clock. It only times the barrier's
// spin budget and never reaches a simulated result.
func hostNow() time.Time {
	return time.Now() //pmlint:allow determinism spin-budget timing only; no simulated result depends on it
}

// spinner is one bounded busy-wait. Its clock starts at the first
// yield, so a wait that ends within spinYield polls never reads it.
type spinner struct {
	polls int
	start time.Time
}

// spin reports whether the waiter may poll again; false once the spin
// budget is spent, when the waiter must park.
func (sp *spinner) spin() bool {
	sp.polls++
	if sp.polls%spinYield != 0 {
		return true
	}
	if sp.polls == spinYield {
		sp.start = hostNow()
	} else if hostNow().Sub(sp.start) >= spinBudget {
		return false
	}
	runtime.Gosched()
	return true
}

// kick posts a wake-up token on a 1-slot channel without blocking. A
// token already waiting is enough: every parked waiter re-checks its
// condition after waking, so a stale token costs one spurious wake.
func kick(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}
