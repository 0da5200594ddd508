// Package earth is a fine-grain multithreaded runtime in the style of
// the EARTH system (Hum, Maquelin, Theobald, Tian, Gao, Hendren — the
// paper's reference [18]), which Section 7 names as the lightweight
// communication software being ported to PowerMANNA: "for the forerunner
// MANNA machine, the EARTH system was shown to offer low communication
// cost close to the hardware limits."
//
// The EARTH model splits programs into *fibers* — short threads that run
// to completion without blocking — synchronized through *sync slots*:
// counters that, on reaching zero, enable a continuation fiber. All
// long-latency actions are split-phase: GET_SYNC fetches a remote word
// and decrements a slot when the reply lands; DATA_SYNC writes a word
// and decrements a slot; INVOKE spawns a threaded procedure on any node.
//
// On EARTH-MANNA the two CPUs of a node divide the work: one runs the
// Execution Unit (EU, runs fibers), the other the Synchronization Unit
// (SU, services tokens and remote requests). The PowerMANNA node
// inherits that split, and this simulation models it the same way: per
// node an EU timeline and an SU timeline, with control messages carried
// by the simulated crossbar network of internal/netsim.
//
// Everything is functional and timed at once: fibers execute real Go
// code against per-node simulated memory, while their costs and every
// token's network transit advance simulated time through one
// deterministic event scheduler.
package earth

import (
	"fmt"

	"powermanna/internal/metrics"
	"powermanna/internal/netsim"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
	"powermanna/internal/trace"
)

// Metric names the runtime feeds when a registry is attached.
const (
	// MetricTokenLatency is the delivery-latency histogram of remote
	// control tokens (post to SU arrival, failover costs included); a
	// split-phase GET_SYNC round trip is two such tokens, request and
	// reply, each observed.
	MetricTokenLatency = "earth.token.latency"
	// MetricTokensRemote counts tokens that crossed the network.
	MetricTokensRemote = "earth.token.remote"
	// MetricFiberDwell is the ready-queue dwell-time histogram: how long
	// each fiber sat ready before its EU dequeued it, observed on every
	// dequeue — including the zero-dwell dequeues of an idle EU, so the
	// histogram's count equals the fiber count and its shape exposes EU
	// backlog rather than just its tail.
	MetricFiberDwell = "earth.fiber.dwell"
	// MetricReadyPeak is the high-water mark of any node's ready-fiber
	// queue — how much latent parallelism the split-phase style exposed.
	MetricReadyPeak = "earth.ready.peak"
)

// Params are the runtime's cost constants, calibrated to the EARTH-MANNA
// measurements of reference [18] (fiber switches of tens of cycles,
// split-phase remote operations bounded by network latency).
type Params struct {
	// CPUClock is the node processor clock (MPC620, 180 MHz).
	CPUClock sim.Clock
	// FiberDispatchCycles is the EU cost to enable and dispatch a fiber.
	FiberDispatchCycles int64
	// SpawnCycles is the EU cost to create and post a token.
	SpawnCycles int64
	// SUOpCycles is the SU cost to service one token or remote request.
	SUOpCycles int64
	// CtrlBytes is the size of a control token on the wire (opcode,
	// addresses, payload word, slot reference).
	CtrlBytes int
}

// DefaultParams returns the calibrated EARTH-on-PowerMANNA constants.
func DefaultParams() Params {
	return Params{
		CPUClock:            sim.ClockMHz(180),
		FiberDispatchCycles: 40, // calibrated: EARTH fiber switch
		SpawnCycles:         60, // calibrated: token creation + post
		SUOpCycles:          50, // calibrated: SU service per token
		CtrlBytes:           24,
	}
}

// ProcID identifies a registered threaded procedure.
type ProcID int

// Proc is a threaded-procedure body: a fiber that runs to completion,
// issuing split-phase operations through the context. ctx and args
// belong to the runtime and are valid only while the fiber runs: the
// node reuses both for its next fiber, so a Proc must not keep them.
type Proc func(ctx *Ctx, args []int64)

// maxArgs bounds the arguments of a fiber (Invoke, SyncSlot): they are
// stored inline in the ready queue, sync slots and tokens, so spawning
// a fiber allocates nothing. Fib passes five.
const maxArgs = 5

// fiberArgs are a fiber's arguments, stored inline.
type fiberArgs struct {
	n int
	v [maxArgs]int64
}

// packArgs copies args inline; more than maxArgs is a program bug.
func packArgs(args []int64) fiberArgs {
	if len(args) > maxArgs {
		panic(fmt.Sprintf("earth: %d fiber arguments, at most %d", len(args), maxArgs))
	}
	var a fiberArgs
	a.n = copy(a.v[:], args)
	return a
}

// SlotRef names a sync slot on a node.
type SlotRef struct {
	Node int
	ID   uint64
}

// System is one EARTH machine: a set of nodes over a simulated
// interconnect. Control tokens travel through per-node fault-aware
// transports, so split-phase operations survive a faulted plane A by
// failing over to plane B like every other software layer.
type System struct {
	params Params
	sched  sim.Engine
	net    *netsim.Network
	nodes  []nodeState
	tps    []netsim.Transport
	procs  []Proc
	// mem holds every node's memory words; slots every node's live sync
	// slots, by value.
	mem   map[memAddr]int64
	slots map[SlotRef]syncSlot
	// ready holds every node's ready fibers: a node's FIFO is linked
	// through next from its head to its tail, and popped entries form
	// the free list from freeReady, so the pool grows only with the
	// machine's peak count of ready fibers. Index -1 ends a list.
	ready     []readyEntry
	freeReady int32
	// events holds the runtime's scheduled events in the engine's
	// order, by time and then push order: at pushes each one here as it
	// schedules fireFn, which is bound once, so every firing pops
	// exactly its own event and rescheduling allocates nothing.
	events sim.Queue[event]
	fireFn func()

	fibersRun int64
	tokens    int64
	remote    int64

	// err is the first fatal runtime error (a token lost on both planes);
	// once set, the run is degraded and Run's caller must check Err.
	err error
	// rec, when non-nil, records fiber, SU-service and token-lifetime
	// spans. Attached via SetRecorder.
	rec *trace.Recorder
	// met holds the runtime's resolved metrics instruments; the zero
	// value is "metrics off". Attached via SetMetrics.
	met earthInstruments
}

// earthInstruments are the runtime's resolved nil-safe instruments.
type earthInstruments struct {
	tokenLatency *metrics.Histogram
	tokensRemote *metrics.Counter
	fiberDwell   *metrics.Histogram
	readyPeak    *metrics.Gauge
}

type fiberInst struct {
	proc ProcID
	args fiberArgs
	// readyAt is when the fiber entered the ready queue; runFiber
	// observes dequeue time minus readyAt as the dwell.
	readyAt sim.Time
}

type syncSlot struct {
	count int
	cont  fiberInst
}

// readyEntry is one fiber in the ready pool (System.ready).
type readyEntry struct {
	f    fiberInst
	next int32
}

// memAddr names a word of one node's memory.
type memAddr struct {
	node int
	addr uint64
}

// event is one scheduled runtime event: a run of node's EU or, when
// deliver is set, token tk arriving at node's SU.
type event struct {
	node    int
	deliver bool
	tk      token
}

type nodeState struct {
	euFree sim.Time
	suFree sim.Time
	euIdle bool
	// head and tail index the node's ready FIFO of n fibers in
	// System.ready.
	head, tail int32
	n          int
	nextSlt    uint64
	nextBuf    uint64
	// ctx is the handle of every fiber the node's EU runs, reused from
	// one fiber to the next.
	ctx Ctx
}

// push appends f to ns's ready FIFO, reusing a free pool entry if one
// is left.
func (s *System) push(ns *nodeState, f fiberInst) {
	i := s.freeReady
	if i >= 0 {
		s.freeReady = s.ready[i].next
		s.ready[i] = readyEntry{f: f, next: -1}
	} else {
		i = int32(len(s.ready))
		s.ready = append(s.ready, readyEntry{f: f, next: -1})
	}
	if ns.n == 0 {
		ns.head = i
	} else {
		s.ready[ns.tail].next = i
	}
	ns.tail = i
	ns.n++
}

// pop removes the oldest fiber of ns's ready FIFO.
func (s *System) pop(ns *nodeState) fiberInst {
	i := ns.head
	e := &s.ready[i]
	ns.head = e.next
	ns.n--
	e.next, s.freeReady = s.freeReady, i
	return e.f
}

// New builds an EARTH system over a topology with the default failover
// protocol.
func New(t *topo.Topology, p Params) *System {
	return NewWithEngine(t, p, sim.NewScheduler())
}

// NewWithEngine builds an EARTH system over an explicit event engine —
// the hook the parallel campaigns use to run a whole EARTH machine on
// one psim shard, where the shard's queue is the runtime's event queue.
// The engine must honor sim.Engine's dispatch order, by time and then
// scheduling order; both the sequential scheduler and a psim shard do.
func NewWithEngine(t *topo.Topology, p Params, eng sim.Engine) *System {
	s := &System{
		params: p,
		sched:  eng,
		net:    netsim.New(t),
		nodes:  make([]nodeState, t.Nodes()),
		mem:    make(map[memAddr]int64),
		slots:  make(map[SlotRef]syncSlot),
		// No pool entry is free yet.
		freeReady: -1,
	}
	s.tps = s.net.Transports(netsim.DefaultFailover())
	s.fireFn = s.fire
	for i := range s.nodes {
		s.nodes[i] = nodeState{
			euIdle: true,
			// Buffers allocate downward from a high watermark so they
			// never collide with program addresses.
			nextBuf: 1 << 40,
			ctx:     Ctx{sys: s, node: i},
		}
	}
	return s
}

// Network exposes the underlying interconnect — for fault injection and
// degraded-mode counters; tokens travel through the per-node transports.
func (s *System) Network() *netsim.Network { return s.net }

// SetRecorder attaches a trace recorder to the runtime and its network:
// fibers, SU token service and token lifetimes are recorded alongside
// the network's own message and failover spans. A nil recorder detaches.
func (s *System) SetRecorder(r *trace.Recorder) {
	s.rec = r
	s.net.SetRecorder(r)
}

// SetMetrics attaches a metrics registry to the runtime and its network:
// remote-token delivery latencies, the remote-token count, the
// ready-queue dwell histogram and the ready-queue high-water mark land
// in the earth.* instruments, and the network feeds its own netsim.*
// and xbar.* families. A nil registry detaches everything.
func (s *System) SetMetrics(m *metrics.Registry) {
	if m == nil {
		s.met = earthInstruments{}
	} else {
		s.met = earthInstruments{
			// Token latencies share the network's bucket geometry so the
			// runtime view lines up under the transport view in the dump.
			tokenLatency: m.TimeHistogram(MetricTokenLatency, metrics.TimeBuckets(sim.Microsecond, 2, 10)),
			tokensRemote: m.Counter(MetricTokensRemote),
			fiberDwell:   m.TimeHistogram(MetricFiberDwell, metrics.TimeBuckets(sim.Microsecond, 2, 10)),
			readyPeak:    m.Gauge(MetricReadyPeak),
		}
	}
	s.net.SetMetrics(m)
	// Label the runtime's token traffic so its delivered latencies read
	// separately from any co-tenant traffic sharing the network.
	for i := range s.tps {
		s.tps[i].SetTenant("earth")
	}
}

// Err reports the first fatal runtime error of the run — a control token
// lost on both network planes, which deadlocks the sync-slot graph. A
// non-nil Err means the makespan and program results are not meaningful.
func (s *System) Err() error { return s.err }

// fail records the first fatal error; later errors are consequences of
// the first and are dropped.
func (s *System) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Register adds a threaded procedure and returns its ID. All procedures
// must be registered before Run. Each fiber of the procedure gets a Ctx
// and args valid only while it runs (Proc).
func (s *System) Register(p Proc) ProcID {
	s.procs = append(s.procs, p)
	return ProcID(len(s.procs) - 1)
}

// Mem reads a word of node n's memory after (or during) a run.
func (s *System) Mem(n int, addr uint64) int64 { return s.mem[memAddr{n, addr}] }

// SetMem initializes node memory before a run.
func (s *System) SetMem(n int, addr uint64, v int64) { s.mem[memAddr{n, addr}] = v }

// Stats reports execution counters.
type Stats struct {
	FibersRun    int64
	Tokens       int64
	RemoteTokens int64
}

// Stats returns the accumulated counters.
func (s *System) Stats() Stats {
	return Stats{
		FibersRun:    s.fibersRun,
		Tokens:       s.tokens,
		RemoteTokens: s.remote,
	}
}

func (s *System) cycles(n int64) sim.Time { return s.params.CPUClock.Cycles(n) }

// Invoke posts the initial token: proc runs on node with args (at most
// five) at t=0.
func (s *System) Invoke(node int, proc ProcID, args ...int64) {
	s.enqueueFiber(node, fiberInst{proc: proc, args: packArgs(args)}, 0)
}

// Run drains the event queue and returns the simulated makespan: the
// latest EU or SU completion across all nodes (the last event's firing
// time alone misses work the final fiber performed).
func (s *System) Run() sim.Time {
	s.sched.Run()
	return s.makespan()
}

func (s *System) makespan() sim.Time {
	var m sim.Time
	for i := range s.nodes {
		m = sim.Max(m, sim.Max(s.nodes[i].euFree, s.nodes[i].suFree))
	}
	return m
}

// at schedules ev at t. Every runtime event goes through here, so the
// engine's order over fireFn matches s.events' order.
func (s *System) at(t sim.Time, ev event) {
	s.events.Push(t, ev)
	s.sched.At(t, s.fireFn)
}

// fire runs the runtime's next event: an EU run or a token's arrival.
//
//pmlint:root
func (s *System) fire() {
	ev, _ := s.events.Next()
	if ev.deliver {
		s.suService(ev.node, ev.tk, s.sched.Now())
		return
	}
	s.runFiber(ev.node)
}

// enqueueFiber makes a fiber ready on a node at time t and kicks the EU
// if it is idle.
func (s *System) enqueueFiber(node int, f fiberInst, t sim.Time) {
	ns := &s.nodes[node]
	f.readyAt = t
	s.push(ns, f)
	s.met.readyPeak.Max(int64(ns.n))
	if ns.euIdle {
		ns.euIdle = false
		s.at(sim.Max(t, ns.euFree), event{node: node})
	}
}

// runFiber pops and executes one ready fiber on the node's EU.
func (s *System) runFiber(node int) {
	ns := &s.nodes[node]
	f := s.pop(ns)
	s.fibersRun++

	start := sim.Max(s.sched.Now(), ns.euFree)
	// A fiber enqueued with a future ready time can be popped earlier by
	// the EU's self-requeue loop; its dwell is zero, not negative.
	s.met.fiberDwell.ObserveTime(sim.Max(0, start-f.readyAt))
	ctx := &ns.ctx
	ctx.now = start + s.cycles(s.params.FiberDispatchCycles)
	ctx.args = f.args
	s.procs[f.proc](ctx, ctx.args.v[:ctx.args.n])
	ns.euFree = ctx.now
	if s.rec.Enabled() {
		s.rec.Span(trace.CPUTrack(node, 0), "earth", "fiber", start, ctx.now)
	}

	if ns.n > 0 {
		s.at(ns.euFree, event{node: node})
	} else {
		ns.euIdle = true
	}
}

// token kinds carried between (and within) nodes.
type tokenKind uint8

const (
	tokInvoke tokenKind = iota
	tokDataSync
	tokGetReq
)

// String names the token kind for trace labels and diagnostics.
func (k tokenKind) String() string {
	switch k {
	case tokInvoke:
		return "invoke"
	case tokDataSync:
		return "data-sync"
	case tokGetReq:
		return "get-req"
	default:
		return fmt.Sprintf("token(%d)", uint8(k))
	}
}

type token struct {
	kind tokenKind
	// invoke
	proc ProcID
	args fiberArgs
	// data_sync / get reply target
	addr  uint64
	value int64
	slot  SlotRef
	// get request
	replyTo SlotRef
	reply   uint64 // destination buffer address on the requester
}

// post routes a token from node src at local time t: locally straight to
// the SU, remotely across the simulated network (both links of the
// duplicated system belong to the application here; plane A is used).
func (s *System) post(src, dst int, tk token, t sim.Time) {
	s.tokens++
	if src == dst {
		s.suService(dst, tk, t)
		return
	}
	s.remote++
	d, err := s.tps[src].Send(t, dst, s.params.CtrlBytes)
	if err != nil {
		s.fail(fmt.Errorf("earth: %v", err))
		return
	}
	if d.Failed {
		// A lost token deadlocks the sync-slot graph: the continuation
		// waiting on it can never fire. The run degrades to an error —
		// already-scheduled events still drain, but Err reports the loss
		// and the caller must discard the makespan.
		if s.rec.Enabled() {
			s.rec.InstantArg(trace.NodeTrack(src), "earth", "token-lost", d.Done,
				fmt.Sprintf("%s %d->%d after %d attempts", tk.kind, src, dst, d.Attempts))
		}
		s.fail(fmt.Errorf("earth: token %s %d->%d lost on both planes at %v after %d attempts",
			tk.kind, src, dst, d.Done, d.Attempts))
		return
	}
	s.met.tokensRemote.Inc()
	s.met.tokenLatency.ObserveTime(d.Done - t)
	if s.rec.Enabled() {
		s.rec.SpanArg(trace.NodeTrack(dst), "earth", "token "+tk.kind.String(), t, d.Done,
			fmt.Sprintf("%d->%d", src, dst))
	}
	s.at(d.Done, event{node: dst, deliver: true, tk: tk})
}

// suService processes a token on the destination node's SU.
func (s *System) suService(node int, tk token, t sim.Time) {
	ns := &s.nodes[node]
	start := sim.Max(t, ns.suFree)
	done := start + s.cycles(s.params.SUOpCycles)
	ns.suFree = done
	if s.rec.Enabled() {
		s.rec.Span(trace.CPUTrack(node, 1), "earth", "su "+tk.kind.String(), start, done)
	}

	switch tk.kind {
	case tokInvoke:
		s.enqueueFiber(node, fiberInst{proc: tk.proc, args: tk.args}, done)
	case tokDataSync:
		s.mem[memAddr{node, tk.addr}] = tk.value
		s.decSlot(tk.slot, done)
	case tokGetReq:
		v := s.mem[memAddr{node, tk.addr}]
		s.post(node, tk.replyTo.Node, token{
			kind:  tokDataSync,
			addr:  tk.reply,
			value: v,
			slot:  tk.replyTo,
		}, done)
	}
}

// decSlot decrements a sync slot, firing its continuation at zero.
// A slot leaves the table when it fires, so decrementing a fired slot
// finds nothing and panics.
func (s *System) decSlot(ref SlotRef, t sim.Time) {
	slot, ok := s.slots[ref]
	if !ok {
		panic(fmt.Sprintf("earth: node %d slot %d does not exist", ref.Node, ref.ID))
	}
	slot.count--
	if slot.count > 0 {
		s.slots[ref] = slot
		return
	}
	delete(s.slots, ref)
	s.enqueueFiber(ref.Node, slot.cont, t)
}

// Ctx is a fiber's handle on the runtime. A fiber runs on one node's EU;
// its operations advance the fiber-local clock and post tokens. Each
// node reuses one Ctx for all its fibers: a Ctx is valid only while its
// fiber runs, and a Proc must not keep it.
type Ctx struct {
	sys  *System
	node int
	now  sim.Time
	// args holds the running fiber's arguments (the Proc's args).
	args fiberArgs
}

// Node reports the executing node.
func (c *Ctx) Node() int { return c.node }

// Nodes reports the machine size.
func (c *Ctx) Nodes() int { return len(c.sys.nodes) }

// Now reports the fiber-local simulated time.
func (c *Ctx) Now() sim.Time { return c.now }

// Charge accounts local computation in CPU cycles.
func (c *Ctx) Charge(cycles int64) { c.now += c.sys.cycles(cycles) }

// Read reads a word of the local node memory (EU-local, no token).
func (c *Ctx) Read(addr uint64) int64 {
	c.Charge(2)
	return c.sys.mem[memAddr{c.node, addr}]
}

// Write writes a word of local node memory (EU-local, no token).
func (c *Ctx) Write(addr uint64, v int64) {
	c.Charge(1)
	c.sys.mem[memAddr{c.node, addr}] = v
}

// AllocBuf reserves a fresh local buffer address.
func (c *Ctx) AllocBuf() uint64 {
	ns := &c.sys.nodes[c.node]
	ns.nextBuf--
	return ns.nextBuf
}

// SyncSlot creates a sync slot on this node that, after count
// decrements, enables proc with args (at most five).
func (c *Ctx) SyncSlot(count int, proc ProcID, args ...int64) SlotRef {
	if count <= 0 {
		panic(fmt.Sprintf("earth: sync slot count %d", count))
	}
	c.Charge(6)
	ns := &c.sys.nodes[c.node]
	ns.nextSlt++
	ref := SlotRef{Node: c.node, ID: ns.nextSlt}
	c.sys.slots[ref] = syncSlot{count: count, cont: fiberInst{proc: proc, args: packArgs(args)}}
	return ref
}

// Invoke spawns a threaded procedure on a node with args (at most
// five; split-phase, the fiber continues immediately).
func (c *Ctx) Invoke(node int, proc ProcID, args ...int64) {
	c.Charge(c.sys.params.SpawnCycles)
	c.sys.post(c.node, node, token{kind: tokInvoke, proc: proc, args: packArgs(args)}, c.now)
}

// DataSync writes value to (node, addr) and decrements slot when the
// write lands — EARTH's split-phase store-with-synchronization.
func (c *Ctx) DataSync(node int, addr uint64, value int64, slot SlotRef) {
	if slot.Node != node {
		panic("earth: DataSync slot must live on the written node")
	}
	c.Charge(c.sys.params.SpawnCycles)
	c.sys.post(c.node, node, token{kind: tokDataSync, addr: addr, value: value, slot: slot}, c.now)
}

// GetSync fetches (node, addr) into local buffer dst and decrements slot
// (which must live on this node) when the reply lands — EARTH's
// split-phase load.
func (c *Ctx) GetSync(node int, addr uint64, dst uint64, slot SlotRef) {
	if slot.Node != c.node {
		panic("earth: GetSync slot must live on the requesting node")
	}
	c.Charge(c.sys.params.SpawnCycles)
	c.sys.post(c.node, node, token{
		kind:    tokGetReq,
		addr:    addr,
		reply:   dst,
		replyTo: slot,
	}, c.now)
}
