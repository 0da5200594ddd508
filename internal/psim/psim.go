// Package psim is the parallel discrete-event engine: the event space
// is split into shards, each running on its own sim.Queue — the one
// event queue internal/sim's sequential Scheduler also runs on, a
// monotone radix queue with O(1) pushes that fires equal times in push
// order — and synchronized through conservative lookahead windows
// (null-message-free barrier rounds). Cross-shard events travel through
// per-pair mailboxes and are merged at each barrier with a
// deterministic (time, source shard, post order) tie-break, so a
// sharded run dispatches exactly the events a sequential run would —
// trace, metrics and stdout stay byte-identical to a sequential
// Scheduler run. The root package's golden tests pin that equivalence
// by running the pmfault/pmtrace goldens through both engines.
//
// A parallel Run keeps a crew of persistent workers for its whole
// duration: worker i owns shard i, the calling goroutine runs shard 0,
// and every round hands off through a reusable spin-then-park barrier
// instead of starting goroutines. Rounds with at most one active shard
// run inline on the caller. The crew is joined before Run returns.
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
// (lookahead 0) engine under Par, which degenerates to one round with
// no barriers: the embarrassingly-parallel fast path.
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
	"slices"
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
// events touch — belongs to exactly one worker goroutine per barrier
// round; the engine is the only cross-shard channel.
type Shard struct {
	sim.Queue[callback]
	// minSlack is the least (post time − now) of this shard's
	// cross-shard posts, sim.MaxTime before the first. Only the shard's
	// own worker writes it: shards post concurrently.
	minSlack sim.Time
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

// runWindow is the worker loop of one barrier round: it dispatches
// every queued callback strictly below the window end. It is the
// parallel engine's event-handler root — each callback it invokes was
// scheduled through At/After or posted through a mailbox — and runs on
// at most one goroutine per shard per round.
//
//pmlint:root
func (s *Shard) runWindow(end sim.Time) {
	for active(s, end) {
		c, _ := s.Next()
		c.fire(s)
	}
}

// Shards cannot exist outside an engine, so the interface check lives
// here: every shard is a drop-in sequential scheduler.
var _ sim.Engine = (*Shard)(nil)

// post is one cross-shard event waiting in a mailbox: its time, source
// shard and callback. Mailbox order within a (src, dst) pair extends
// the (time, push order) tie-break across shards.
type post struct {
	at  sim.Time
	src int
	callback
}

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

// Engine coordinates shards through conservative barrier rounds. One
// round: pick the globally earliest pending event, extend it by the
// lookahead into a window, let every shard dispatch its sub-window
// events concurrently, then merge the mailboxes deterministically and
// repeat. With lookahead 0 the window is unbounded — a single round
// with no barriers, the right mode for partitions that exchange no
// events (campaign rate rows).
type Engine struct {
	shards    []*Shard
	lookahead sim.Time
	// serial dispatches every round on the calling goroutine, shard 0
	// first — the --engine seq execution of a partitioned model. The
	// event program (window ends, mailbox merges, push order) is
	// identical to the parallel dispatch, so serial and parallel runs of
	// a shard-confined model produce byte-identical histories; serial is
	// also safe to drive from inside another engine's event (nested
	// engines), because it never starts a crew.
	serial bool
	// horizon is the current round's window end (sim.MaxTime when the
	// window is unbounded); PostPayload enforces the conservative contract
	// against it.
	horizon sim.Time
	// mail[src*len(shards)+dst] buffers the posts src made for dst
	// during the current round; only src's worker appends to it, so
	// rounds need no locks — the barrier is the synchronization.
	mail [][]post
	// merged is deliver's reused merge buffer.
	merged []post
	// rounds counts windows; solo counts those with at most one active
	// shard. Both are pure functions of the model.
	rounds, solo uint64
	// crew is the current parallel Run's worker crew, nil outside one.
	crew *crew
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
		horizon:   sim.MaxTime,
		mail:      make([][]post, n*n),
	}
	for i := range e.shards {
		e.shards[i] = &Shard{minSlack: sim.MaxTime}
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
// then one barrier-free round runs them concurrently. A row's events
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
// default: a crew of persistent workers, one per shard, for each Run)
// and serial dispatch (every shard's window run on the calling
// goroutine, shard order). Both produce the same history; serial is the
// sequential execution of a partitioned model and the only safe mode
// inside another engine's event.
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
// with an event in the window: rounds with nothing to hand off.
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
// beyond the current window's end, because dst may already have
// dispatched past any earlier time — violating it is a lookahead bug in
// the model (its cross-shard latency is smaller than the engine's
// lookahead) and panics.
//
//pmlint:hotpath
func (e *Engine) PostPayload(src, dst int, t sim.Time, h Handler, payload any) {
	if t < e.horizon {
		panic(fmt.Sprintf("psim: shard %d posting payload to shard %d at %v inside the window ending %v: model latency below the configured lookahead", src, dst, t, e.horizon)) //pmlint:allow hotpath cold panic guard for a lookahead violation, never taken per event
	}
	e.shards[src].noteSlack(t)
	box := &e.mail[src*len(e.shards)+dst]
	*box = append(*box, post{at: t, src: src, callback: callback{h: h, arg: payload}})
}

// nextEventTime reports the earliest pending event across shards.
func (e *Engine) nextEventTime() (sim.Time, bool) {
	var min sim.Time
	found := false
	for _, s := range e.shards {
		if at, ok := s.NextAt(); ok && (!found || at < min) {
			min, found = at, true
		}
	}
	return min, found
}

// Run drives barrier rounds until every shard queue and mailbox is empty.
// Each round dispatches the shards with work concurrently and merges
// the mailboxes single-threaded at the barrier, so the only
// cross-goroutine data flow is the hand-off at the round start and the
// countdown at the barrier. The first round with two or more active
// shards starts the crew; Run stops and joins it on return, a panic
// unwinding through Run included, so no worker outlives it. A panic in
// an event on a worker's shard is re-raised on the caller at the end of
// its round. Serial and single-shard engines, and hosts with
// GOMAXPROCS 1, never start one.
func (e *Engine) Run() {
	defer e.stopCrew()
	fanout := !e.serial && len(e.shards) > 1 && runtime.GOMAXPROCS(0) > 1
	for {
		next, ok := e.nextEventTime()
		if !ok {
			return
		}
		end := sim.MaxTime
		if e.lookahead > 0 {
			end = next + e.lookahead
		}
		e.horizon = end
		e.round(end, fanout)
		e.horizon = sim.MaxTime
		e.deliver()
	}
}

// active reports whether shard s has an event in the window ending at
// end.
func active(s *Shard, end sim.Time) bool {
	at, ok := s.NextAt()
	return ok && at < end
}

// round runs one window. A round with at most one active shard — or
// any round without fanout — runs every shard's window on the calling
// goroutine in shard order. Otherwise each active shard i > 0 is handed
// to its crew worker, the caller runs shard 0 itself, and the round
// ends when the last worker counts down. Which goroutine runs a shard
// never changes what it dispatches, so the history is the same either
// way.
func (e *Engine) round(end sim.Time, fanout bool) {
	e.rounds++
	n := 0
	for _, s := range e.shards {
		if active(s, end) {
			n++
		}
	}
	if n <= 1 {
		e.solo++
	}
	if n <= 1 || !fanout {
		for _, s := range e.shards {
			s.runWindow(end)
		}
		return
	}
	c := e.crew
	if c == nil {
		c = e.startCrew()
	}
	c.end = end
	c.gen++
	if active(e.shards[0], end) {
		n--
	}
	c.pending.Store(int32(n))
	for i, s := range e.shards[1:] {
		if active(s, end) {
			c.workers[i].hand(c.gen)
		}
	}
	e.shards[0].runWindow(end)
	c.await()
	c.rethrow()
}

// spinBudget bounds every busy-wait of the barrier: a worker waiting
// for its next round and the caller waiting for the round's end each
// poll for at most this long before parking. It spans the gap between
// the back-to-back rounds of a busy run without holding a processor
// through a long idle stretch. A fixed poll count does not: polls are
// so cheap that any count small enough to bound the wait parks between
// rounds of the same burst.
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

// worker is one crew member's hand-off state.
type worker struct {
	// start is the generation of the last round handed to this worker;
	// storing it publishes the round's window end and the stop flag.
	start atomic.Uint64
	// parked is set while the worker sleeps on wake.
	parked atomic.Bool
	wake   chan struct{}
	// failure is the panic value of an event on the worker's shard,
	// stored before the worker's last countdown; nil while it runs.
	failure any
}

// hand starts round gen on the worker. Dekker order with await: store
// the generation, then load parked — either the worker sees the new
// generation before it sleeps, or this sees it parked and wakes it.
func (w *worker) hand(gen uint64) {
	w.start.Store(gen)
	if w.parked.Load() {
		kick(w.wake)
	}
}

// await blocks until the worker is handed a round other than seen and
// returns its generation: a bounded spin, then a park.
func (w *worker) await(seen uint64) uint64 {
	var sp spinner
	for {
		if g := w.start.Load(); g != seen {
			return g
		}
		if sp.spin() {
			continue
		}
		w.parked.Store(true)
		if w.start.Load() == seen {
			<-w.wake
		}
		w.parked.Store(false)
	}
}

// crew is a parallel Run's set of persistent shard workers. Worker i
// drives shard i for the whole Run (workers[i-1]; the caller runs
// shard 0). end and stop are written by the caller before it hands a
// round out and read by a worker only after it sees the hand-off; the
// caller writes them again only after the round's countdown reaches
// zero, so the barrier orders every access.
type crew struct {
	workers []worker
	gen     uint64
	end     sim.Time
	stop    bool
	// pending counts the workers still running the current round.
	pending atomic.Int32
	// parked is set while the caller sleeps on wake.
	parked atomic.Bool
	wake   chan struct{}
	done   sync.WaitGroup
}

// startCrew starts one worker per shard beyond shard 0.
func (e *Engine) startCrew() *crew {
	c := &crew{workers: make([]worker, len(e.shards)-1), wake: make(chan struct{}, 1)}
	c.done.Add(len(c.workers))
	for i := range c.workers {
		c.workers[i].wake = make(chan struct{}, 1)
		go c.work(e.shards[i+1], &c.workers[i])
	}
	e.crew = c
	return c
}

// work is a crew worker's loop: wait for a round, run the shard's
// window, count down, until the caller stops the crew. It is the
// parallel engine's second event-handler root beside runWindow: every
// callback a worker dispatches runs in event-handler context. A
// panicking event ends the worker: it records the panic value and
// counts down, and the caller re-raises the panic once the round has
// joined, so it reaches Run's caller as a shard-0 panic does.
//
//pmlint:root
func (c *crew) work(s *Shard, w *worker) {
	defer c.done.Done()
	defer func() {
		if r := recover(); r != nil {
			w.failure = r
			c.countDown()
		}
	}()
	var seen uint64
	for {
		seen = w.await(seen)
		if c.stop {
			return
		}
		s.runWindow(c.end)
		c.countDown()
	}
}

// countDown marks one worker's share of the round done and wakes the
// caller if it parked waiting for the last one.
func (c *crew) countDown() {
	if c.pending.Add(-1) == 0 && c.parked.Load() {
		kick(c.wake)
	}
}

// rethrow re-raises on the caller the panic of the lowest-numbered
// worker whose shard panicked in the round just joined. The countdown
// orders the worker's store of failure before this read.
func (c *crew) rethrow() {
	for i := range c.workers {
		if r := c.workers[i].failure; r != nil {
			panic(r)
		}
	}
}

// await blocks the caller until every worker of the current round has
// counted down: a bounded spin, then a park, in the same Dekker order
// as worker.await against work's countdown.
func (c *crew) await() {
	var sp spinner
	for c.pending.Load() != 0 {
		if sp.spin() {
			continue
		}
		c.parked.Store(true)
		if c.pending.Load() != 0 {
			<-c.wake
		}
		c.parked.Store(false)
	}
}

// stopCrew ends the crew, if one is running, and joins its workers. A
// panic on the caller can leave a round in flight, so it first waits
// for the round's countdown, then hands every worker the stop round.
func (e *Engine) stopCrew() {
	c := e.crew
	if c == nil {
		return
	}
	e.crew = nil
	c.await()
	c.stop = true
	c.gen++
	for i := range c.workers {
		c.workers[i].hand(c.gen)
	}
	c.done.Wait()
}

// deliver merges the round's mailboxes into the destination queues
// with the deterministic cross-shard tie-break: ascending (time, source
// shard, post order). Posts are pushed in that merged order, so the
// (time, push order) queue order downstream — and with it every
// simulated outcome — is a pure function of the model, never of
// goroutine timing. Posts enter the queue as they are — payload
// posts as payload events — through one reused merge buffer, so a round
// allocates nothing once the buffers have grown, and through Push, so
// its past-time guard covers every merge.
func (e *Engine) deliver() {
	n := len(e.shards)
	for dst := 0; dst < n; dst++ {
		merged := e.merged[:0]
		for src := 0; src < n; src++ {
			box := &e.mail[src*n+dst]
			if len(*box) == 0 {
				continue
			}
			merged = append(merged, *box...)
			clear(*box) // drop the callbacks so the GC can collect them
			*box = (*box)[:0]
		}
		if len(merged) == 0 {
			continue
		}
		// Stable sort: posts from one source stay in posting order, the
		// third key of the tie-break.
		slices.SortStableFunc(merged, func(a, b post) int {
			if a.at != b.at {
				if a.at < b.at {
					return -1
				}
				return 1
			}
			return a.src - b.src
		})
		s := e.shards[dst]
		for _, p := range merged {
			s.Push(p.at, p.callback)
		}
		clear(merged)
		e.merged = merged[:0]
	}
}
