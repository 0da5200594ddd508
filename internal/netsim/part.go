// Node-partitioned datapath: the split-phase send machinery that routes
// every inter-node message through psim cross-shard mailboxes.
//
// There is one header walk, Network.walk. The synchronous executor
// (Network.send) walks a whole path in one call, which is only sound
// when one goroutine owns the entire network. A PartNetwork carves the
// same network across psim shards — contiguous node groups, resource
// ownership per topo.Partition — and splits each send into a local and
// a remote phase: the source shard walks the source-owned prefix of the
// route (its own uplink, its leaf crossbar's outputs, the leaf-to-
// central wire) and posts the remainder as a cross-shard event at the
// time the header reaches the central crossbar; the destination shard
// walks the destination-owned suffix, renders the delivery or failure
// verdict (CRC check included), and posts the outcome back. Every
// cross-shard hop rides a psim mailbox as plain data (psim.Handler
// payloads), never a closure over source-shard state.
//
// Determinism contract — the event program is independent of the shard
// count. Two mechanisms enforce it:
//
//   - Sends split at the topology's grain (topo.GroupPartition: one
//     group per leaf crossbar), not at the user's shard boundary. A
//     cross-group send always splits at the central crossbar's output,
//     whether both groups share a shard (the remote leg is a local
//     event) or not (it crosses a mailbox); an intra-group send never
//     splits. Shard count then only decides event placement, and psim's
//     deterministic mailbox merge makes placement unobservable.
//   - All walk attempts are buffered and processed by a canonical drain
//     event one picosecond after they were produced, sorted by message
//     id. Same-timestamp walkers therefore claim resources in an order
//     that is a pure function of the model (issue time, then message
//     id), not of event sequence interleavings. Walk arithmetic uses
//     the walker's carried model times, so the picosecond offset never
//     distorts a transit.
//
// Resource discipline: a completed walk claims its whole segment
// atomically (Network.hold, the same peek-then-claim as the synchronous
// executor). A source leg of a split send cannot know its release time
// until the destination's verdict, so it marks its resources open-held
// in its shard's table, which Network.walk consults; walkers hitting an
// open hold park without claiming anything (no hold-and-wait, hence no
// deadlock) and are re-buffered into a canonical drain when the hold
// resolves into a real timed claim.
package netsim

import (
	"fmt"
	"slices"

	"powermanna/internal/link"
	"powermanna/internal/metrics"
	"powermanna/internal/ni"
	"powermanna/internal/psim"
	"powermanna/internal/sim"
	"powermanna/internal/stats"
	"powermanna/internal/topo"
	"powermanna/internal/trace"
	"powermanna/internal/xbar"
)

// canonStep is the offset of the canonical drain event: walk attempts
// produced at simulated time T are processed at T + 1 ps, sorted by
// message id. One picosecond is below every hardware constant in the
// model, so the offset is unobservable in any transit time, while
// keeping the drain strictly after every same-time producer event.
const canonStep = sim.Picosecond

// DeliverFunc receives one delivered message on the destination node's
// shard: the hook a partitioned message-passing layer registers to feed
// its receive queues. It runs inside a destination-shard event at the
// message's last-byte arrival time.
type DeliverFunc func(src, dst int, payload any, firstByte, lastByte sim.Time)

// PartNetwork is a network partitioned across psim shards: the
// split-phase, mailbox-routed counterpart of Network + Transport.
type PartNetwork struct {
	net *Network
	// part is the user's placement: which shard owns each node and
	// directed resource. grain is the finest aligned partition (one group
	// per leaf crossbar) — the boundary the event program is fixed to, so
	// every shard count replays the identical history.
	part, grain *topo.Partition
	eng         *psim.Engine
	shards      []*partShard
	tps         []Transport
	// msgSeq numbers each source node's sends; msgID = src<<32|seq is the
	// canonical drain sort key. Each entry is written only by its node's
	// shard.
	msgSeq []uint32
	// deliver, when non-nil, receives every delivered payload on the
	// destination shard. Registered before Run; immutable during it.
	deliver DeliverFunc
	// tenants are the labels SetTenants declared, kept so a re-attached
	// registry re-resolves the per-tenant histograms.
	tenants []string
	// userReg/userRec are the caller's registry and recorder; per-shard
	// instances absorb the run and fold back at Finish.
	userReg *metrics.Registry
	userRec *trace.Recorder
	folded  bool
}

// partShard is one shard's slice of the partitioned network: its drain
// buffer, open-hold table, free lists and private observability
// instruments.
type partShard struct {
	pn *PartNetwork
	id int
	sh *psim.Shard
	// pending holds walk attempts awaiting their canonical drain; due is
	// the drain's reused scratch. armedAt is the latest scheduled drain
	// time: the shard clock is monotone, so a drain due at now+canonStep
	// is pending exactly when armedAt equals it. drainFn is the drain
	// callback, bound once.
	pending []*pleg
	due     []*pleg
	armedAt sim.Time
	drainFn func()
	// open indexes, by resKey, the open hold of a split send's source
	// leg (claim window end unknown until the destination's verdict);
	// nil where no hold stands.
	open []*openHold
	// dstWires/dstHops are the claim buffers of destination-leg walks,
	// reused by every walk on this shard.
	dstWires []partWireClaim
	dstHops  []partHopClaim
	// Free lists, each used only by this shard's events: the psends and
	// remoteLegs of sends sourced here, the open holds of resources
	// claimed here, the arrival records of messages delivered here.
	freeSends    freeList[psend]
	freeLegs     freeList[remoteLeg]
	freeHolds    freeList[openHold]
	freeArrivals freeList[arrival]
	// planes is this shard's slice of the degraded-mode counters,
	// summed across shards by Plane (commutative, so placement-free).
	planes [ni.LinksPerNode]PlaneCounters
	reg    *metrics.Registry
	met    netInstruments
	// arbWait and planeWait mirror the crossbar's arbitration instruments
	// for partitioned claims: one crossbar's outputs can belong to
	// different shards, so the wait accounting lands in the claiming
	// shard's own histograms instead of the crossbar's shared ones.
	arbWait   *metrics.Histogram
	planeWait [ni.LinksPerNode]*metrics.Histogram
	rec       *trace.Recorder
}

// freeList is a single-owner stack of recycled objects: one shard's
// events are its only users, so it needs no synchronization.
type freeList[T any] struct{ items []*T }

// get pops a recycled object, or allocates a fresh zero one.
func (f *freeList[T]) get() *T {
	k := len(f.items)
	if k == 0 {
		return new(T)
	}
	x := f.items[k-1]
	f.items[k-1] = nil
	f.items = f.items[:k-1]
	return x
}

// put recycles x; the caller has already zeroed its pointer fields.
func (f *freeList[T]) put(x *T) { f.items = append(f.items, x) }

// openHold marks a resource held by an in-flight split send whose claim
// window is not yet known. Walkers that hit it park here and are
// re-buffered when the hold resolves.
type openHold struct {
	waiters []*pleg
}

// park queues walker l on the open hold at key, if one stands there;
// open is nil on the synchronous path, which never parks.
func park(open []*openHold, key resKey, l *pleg) bool {
	if open == nil || open[key] == nil {
		return false
	}
	open[key].waiters = append(open[key].waiters, l)
	return true
}

// NewPartitioned assembles a partitioned network over the topology:
// shards contiguous node groups (topo.Partition), one psim shard each,
// with every directed wire pre-created from one slab (lazy creation
// would write the shared wire table from concurrent shards) and one
// fault-aware transport per node for route and plane-down caching on
// the node's shard. The engine's window width is derived from the
// topology (lookaheadFor).
func NewPartitioned(t *topo.Topology, shards int, cfg FailoverConfig) (*PartNetwork, error) {
	part, err := t.Partition(shards)
	if err != nil {
		return nil, err
	}
	grain, err := t.GroupPartition()
	if err != nil {
		return nil, err
	}
	n := New(t)
	wired := 0
	eachWired(t, func(int, int) { wired++ })
	n.spare = make([]link.Wire, wired)
	eachWired(t, func(dev, port int) { n.wire(dev, port) })
	pn := &PartNetwork{
		net:    n,
		part:   part,
		grain:  grain,
		eng:    psim.NewEngine(shards, lookaheadFor(t, grain, n, cfg.NackLatency)),
		tps:    n.Transports(cfg),
		msgSeq: make([]uint32, t.Nodes()),
	}
	resources := n.hopRes(t.Crossbars(), 0)
	for i := 0; i < shards; i++ {
		ps := &partShard{
			pn:   pn,
			id:   i,
			sh:   pn.eng.Shard(i),
			open: make([]*openHold, resources),
		}
		ps.drainFn = ps.drain
		pn.shards = append(pn.shards, ps)
	}
	return pn, nil
}

// eachWired calls f on every wired port of t: the node uplinks, then
// the crossbar outputs.
func eachWired(t *topo.Topology, f func(dev, port int)) {
	for dev := 0; dev < t.Nodes()+t.Crossbars(); dev++ {
		ports := ni.LinksPerNode
		if dev >= t.Nodes() {
			ports = xbar.Ports
		}
		for p := 0; p < ports; p++ {
			if t.Wired(dev, p) {
				f(dev, p)
			}
		}
	}
}

// lookaheadFor derives the engine's conservative window width from the
// network's grain: the least simulated time between a canonical drain
// and any event it posts to another shard. The datapath posts across
// shards in two places, each at least one route setup plus one crossing
// of a boundary wire (topo.BoundaryLinks) past its drain, less the
// canonStep the drain trails its producer by:
//
//   - srcSplit posts a remote leg at the header's arrival at the
//     central crossbar, after a route setup at the source leaf and the
//     leaf-to-central wire. That setup starts no earlier than the
//     drain: a first walk enters the network no earlier than its
//     drain's producer, and a walker woken from an open hold re-walks
//     into the leaf output it parked at, freed no earlier than the
//     release that woke it. A leaf output and the wire leaving it are
//     held and released together, so no walker parks on the boundary
//     wire itself.
//   - sendVerdict posts at the last byte, or at a failure's detection.
//     A destination leg is drained one canonStep after it arrives and
//     never parks — open holds cover only up-direction, source-owned
//     resources — so the verdict lies a route setup at the central
//     crossbar plus the central-to-leaf wire past the drain, or at
//     least NackLatency past it for a failure.
//
// The bound is computed on the grain, not on the placement, so every
// aligned shard count, one included, runs the same window program. A
// one-group grain, a synchronous boundary wire or a topology that is
// not a leaf/central hierarchy falls back to psim.DefaultLookahead, as
// does a bound that would not widen the window; the PostPayload panic
// stays the runtime guard.
func lookaheadFor(t *topo.Topology, grain *topo.Partition, n *Network, nackLatency sim.Time) sim.Time {
	floor := psim.DefaultLookahead()
	links, sync, err := t.BoundaryLinks(grain)
	if grain.Shards() < 2 || err != nil || links == 0 || sync > 0 {
		return floor
	}
	wire := n.linkCfg.PropagationDelay + n.linkCfg.TransferTime(1) + n.trans.Latency
	la := min(xbar.RouteSetup+wire, nackLatency) - canonStep
	return max(la, floor)
}

// Network exposes the underlying network for pre-run fault injection
// (CutWire, CorruptWire — wire fault windows are immutable during a
// partitioned run, which is what makes reading them cross-shard safe).
func (pn *PartNetwork) Network() *Network { return pn.net }

// Engine exposes the psim engine driving the shards.
func (pn *PartNetwork) Engine() *psim.Engine { return pn.eng }

// Shard returns shard i's event scheduler.
func (pn *PartNetwork) Shard(i int) *psim.Shard { return pn.shards[i].sh }

// ShardOf reports the shard owning node n.
func (pn *PartNetwork) ShardOf(node int) int { return pn.part.NodeShard(node) }

// OnDeliver registers the delivery hook. Call before Run.
func (pn *PartNetwork) OnDeliver(fn DeliverFunc) { pn.deliver = fn }

// SetSerial switches the engine between parallel and serial dispatch —
// byte-identical histories either way (psim's contract); serial is the
// --engine seq execution and the only safe mode nested inside another
// engine's event.
func (pn *PartNetwork) SetSerial(on bool) { pn.eng.SetSerial(on) }

// SetMetrics attaches a registry: each shard resolves its own private
// instruments (send-path counters, latency and detection histograms,
// arbitration waits) and Finish merges them into m in shard order. The
// merged result is independent of the shard count because every merge
// is commutative (sums and extrema).
func (pn *PartNetwork) SetMetrics(m *metrics.Registry) {
	pn.userReg = m
	for _, ps := range pn.shards {
		if m == nil {
			ps.reg, ps.met = nil, netInstruments{}
			ps.arbWait = nil
			ps.planeWait = [ni.LinksPerNode]*metrics.Histogram{}
			continue
		}
		ps.reg = metrics.NewRegistry()
		ps.met = newNetInstruments(ps.reg, pn.tenants)
		buckets := metrics.TimeBuckets(200*sim.Nanosecond, 2, 10)
		ps.arbWait = ps.reg.TimeHistogram(xbar.MetricArbWait, buckets)
		for p := range ps.planeWait {
			ps.planeWait[p] = ps.reg.TimeHistogram(xbar.MetricArbWaitPlanePrefix+planeName(p), buckets)
		}
	}
}

// SetTenants declares the tenant labels of SendAsyncTenant: tenant i's
// delivered latencies land in the histogram named
// MetricSendLatencyTenantPrefix + names[i], resolved per shard and
// folded with the rest at Finish. Off (like everything else) when no
// registry is attached; call order with SetMetrics does not matter.
func (pn *PartNetwork) SetTenants(names []string) {
	pn.tenants = names
	for _, ps := range pn.shards {
		ps.met.setTenants(ps.reg, names)
	}
}

// ShardRegistry exposes shard i's private registry so co-partitioned
// layers (internal/mpl) can resolve their own per-shard instruments and
// have them folded with the network's. Nil when metrics are off.
func (pn *PartNetwork) ShardRegistry(i int) *metrics.Registry { return pn.shards[i].reg }

// SetRecorder attaches a recorder: each shard records into a private
// recorder, every pre-created wire records into its owning shard's, and
// Finish merges all of them into r under trace.Merge's canonical order.
func (pn *PartNetwork) SetRecorder(r *trace.Recorder) {
	pn.userRec = r
	for _, ps := range pn.shards {
		if r == nil {
			ps.rec = nil
		} else {
			ps.rec = trace.NewRecorder()
		}
	}
	t := pn.net.topo
	for slot, w := range pn.net.wires {
		if w == nil {
			continue
		}
		dev, port := slot/xbar.Ports, slot%xbar.Ports
		owner := 0
		if dev < t.Nodes() {
			owner = pn.part.NodeShard(dev)
		} else if o := pn.part.XbarOutOwner(dev-t.Nodes(), port); o >= 0 {
			owner = o
		}
		if r == nil {
			w.Trace(nil, 0)
		} else {
			w.Trace(pn.shards[owner].rec, trace.WireTrack(dev, port, 0))
		}
	}
}

// Run drives the engine until every shard drains, then folds the
// per-shard observability state into the attached registry/recorder.
func (pn *PartNetwork) Run() {
	pn.eng.Run()
	pn.fold()
}

// fold merges per-shard metrics and traces into the user's instruments;
// idempotent via the folded latch.
func (pn *PartNetwork) fold() {
	if pn.folded {
		return
	}
	pn.folded = true
	if pn.userReg != nil {
		for _, ps := range pn.shards {
			pn.userReg.MergeFrom(ps.reg)
		}
	}
	if pn.userRec != nil {
		recs := make([]*trace.Recorder, len(pn.shards))
		for i, ps := range pn.shards {
			recs[i] = ps.rec
		}
		trace.Merge(pn.userRec, recs...)
	}
}

// Plane sums plane p's degraded-mode counters across shards.
func (pn *PartNetwork) Plane(p int) PlaneCounters {
	var sum PlaneCounters
	for _, ps := range pn.shards {
		c := ps.planes[p]
		sum.Attempts += c.Attempts
		sum.Delivered += c.Delivered
		sum.Stalled += c.Stalled
		sum.LinkDown += c.LinkDown
		sum.SetupTimeouts += c.SetupTimeouts
		sum.CRCErrors += c.CRCErrors
		sum.CRCRetries += c.CRCRetries
		sum.FailedOver += c.FailedOver
		sum.SkippedDown += c.SkippedDown
	}
	return sum
}

// PlaneCounterSet renders plane p's shard-summed counters as the same
// ordered stats.CounterSet a Network renders — the degraded-mode report
// of cmd/pmfault. The OS-stream rows are always zero: the partitioned
// datapath carries no background OS stream.
func (pn *PartNetwork) PlaneCounterSet(p int) stats.CounterSet { return pn.Plane(p).counterSet(p) }

// OnPost implements psim.Handler: every payload event of the datapath —
// a remote leg (header reached this shard's half of a route), a
// finalize verdict (the destination's outcome returning to the source)
// or an arrival (a delivered message reaching its OnDeliver hook) —
// enters here, whether it crossed a mailbox or was scheduled locally.
//
//pmlint:root
func (ps *partShard) OnPost(_ *psim.Shard, payload any) {
	switch m := payload.(type) {
	case *remoteLeg:
		ps.acceptRemote(m)
	case *finalizeMsg:
		ps.finalize(m)
	case *arrival:
		ps.arrive(m)
	default:
		panic(fmt.Sprintf("netsim: shard %d received unknown payload %T", ps.id, payload))
	}
}

// buffer queues a walk attempt for the canonical drain one canonStep
// after the current event.
//
//pmlint:hotpath
func (ps *partShard) buffer(l *pleg) {
	wd := ps.sh.Now() + canonStep
	l.wd = wd
	ps.pending = append(ps.pending, l)
	if ps.armedAt != wd {
		ps.armedAt = wd
		ps.sh.At(wd, ps.drainFn)
	}
}

// drain processes every buffered walk attempt due at this drain time in
// canonical message-id order — the step that makes same-timestamp
// resource claims a pure function of the model.
//
//pmlint:root
func (ps *partShard) drain() {
	at := ps.sh.Now()
	due := ps.due[:0]
	rest := ps.pending[:0]
	for _, l := range ps.pending {
		if l.wd <= at {
			due = append(due, l)
		} else {
			rest = append(rest, l)
		}
	}
	clear(ps.pending[len(rest):])
	ps.pending = rest
	// Message ids are unique within a drain (one walk attempt per send
	// at a time), so any comparison sort yields the one canonical order.
	slices.SortFunc(due, func(a, b *pleg) int {
		switch {
		case a.msgID < b.msgID:
			return -1
		case a.msgID > b.msgID:
			return 1
		}
		panic(fmt.Sprintf("netsim: shard %d drained message %d twice", ps.id, a.msgID))
	})
	for _, l := range due {
		ps.process(l)
	}
	clear(due)
	ps.due = due[:0]
}

// pleg is one walk attempt over a contiguous same-shard segment of a
// message's route: the whole path of an intra-group send, or the
// source- or destination-owned half of a split one. Each psend embeds
// its source pleg and each remoteLeg its destination pleg.
type pleg struct {
	msgID uint64
	wd    sim.Time // canonical drain deadline
	// p is the protocol driver — source-shard legs only; nil on a
	// destination leg (the verdict returns through a finalizeMsg).
	p *psend
	// rl is the remote-leg payload — destination legs only.
	rl *remoteLeg
}

// remoteLeg is the cross-shard continuation of a split send: everything
// the destination shard needs to finish the walk, render the verdict
// and deliver the payload. It starts and ends on its source shard: taken
// from the source shard's free list in srcSplit, read and completed (leg
// and fin) by the destination shard, and recycled by finalize back on
// the source shard, so no object ever changes free lists mid-flight.
type remoteLeg struct {
	leg          pleg        // the destination walk attempt
	fin          finalizeMsg // the verdict, filled on the destination shard
	msgID        uint64
	src, dst     int
	plane        int
	path         *topo.Path
	split        int      // first destination-owned hop
	head         sim.Time // header arrival at the boundary crossbar
	entry        sim.Time // network entry time (for the message spans)
	wireBytes    int
	setupTimeout sim.Time
	ackTimeout   sim.Time
	nackLatency  sim.Time
	// srcChecks are the source leg's claims on wires with a fault
	// window, for the CRC verdict. The wire pointers are read-only there:
	// fault windows are immutable during a run.
	srcChecks []partWireClaim
	payload   any
	// p is the source shard's protocol driver awaiting the verdict; only
	// finalize, on the source shard, dereferences it.
	p *psend
}

// putLeg zeroes a finished remote leg, keeping its buffer, and recycles
// it on its (source) shard.
func (ps *partShard) putLeg(rl *remoteLeg) {
	*rl = remoteLeg{srcChecks: rl.srcChecks[:0]}
	ps.freeLegs.put(rl)
}

// finalizeMsg is the destination's verdict returning to the source
// shard: the outcome of the destination half of a split send. It lives
// inside its remoteLeg (rl).
type finalizeMsg struct {
	rl    *remoteLeg
	msgID uint64
	kind  uint8 // finOK, finCRC, finCut, finTimeout
	// last/firstByte/setupDone describe the completed circuit (finOK and
	// finCRC); detected is when the source learns of a failure (ack
	// timeout for cut/timeout, NACK return for CRC).
	last, firstByte, setupDone sim.Time
	detected                   sim.Time
}

const (
	finOK uint8 = iota
	finCRC
	finCut
	finTimeout
)

// arrival is one pending OnDeliver call, taken from and recycled to the
// destination shard's free list.
type arrival struct {
	src, dst    int
	payload     any
	first, last sim.Time
}

// scheduleArrival queues the OnDeliver hook for a delivered message at
// its last-byte time (nothing when no hook is registered).
func (ps *partShard) scheduleArrival(src, dst int, payload any, first, last sim.Time) {
	if ps.pn.deliver == nil {
		return
	}
	a := ps.freeArrivals.get()
	*a = arrival{src: src, dst: dst, payload: payload, first: first, last: last}
	ps.sh.AtPost(last, ps, a)
}

// arrive runs the OnDeliver hook for one arrival, then recycles it.
//
//pmlint:root
func (ps *partShard) arrive(a *arrival) {
	ps.pn.deliver(a.src, a.dst, a.payload, a.first, a.last)
	*a = arrival{}
	ps.freeArrivals.put(a)
}

// process runs one drained walk attempt to its next state: parked on an
// open hold, failed (severed wire / setup timeout), or walked — in
// which case the claim/split/finalize logic of the leg's side applies.
func (ps *partShard) process(l *pleg) {
	if l.p != nil {
		ps.processSrc(l)
	} else {
		ps.processDst(l)
	}
}

// claimHop claims one crossbar output channel for a split-phase walk,
// with the arbitration wait and circuit span landing in this shard's own
// instruments: one crossbar's outputs can belong to several shards, so
// its shared counters stay out of the split-phase path.
func (ps *partShard) claimHop(c partHopClaim, until sim.Time, plane int) {
	ps.pn.net.xbars[c.ord].ClaimOutput(c.start, until, c.out)
	if c.start > c.requested {
		ps.arbWait.ObserveTime(c.start - c.requested)
		ps.planeWait[plane].ObserveTime(c.start - c.requested)
	}
	if ps.rec.Enabled() {
		track := trace.XbarPortTrack(c.ord, c.out)
		if c.start > c.requested {
			ps.rec.Span(track, "xbar", "arb-wait", c.requested, c.start)
		}
		ps.rec.Span(track, "xbar", "circuit", c.start, until)
	}
}

// holdOpen marks a source leg's walked resources open-held until its
// verdict, recording their keys in p.openKeys.
func (ps *partShard) holdOpen(p *psend) {
	keys := p.openKeys[:0]
	for _, c := range p.srcWires {
		ps.open[c.key] = ps.freeHolds.get()
		keys = append(keys, c.key)
	}
	for _, c := range p.srcHops {
		ps.open[c.key] = ps.freeHolds.get()
		keys = append(keys, c.key)
	}
	p.openKeys = keys
}

// releaseOpen clears a message's open holds and re-buffers every parked
// walker into the next canonical drain (which re-sorts them by message
// id, keeping wake order model-determined).
func (ps *partShard) releaseOpen(keys []resKey) {
	for _, k := range keys {
		hold := ps.open[k]
		if hold == nil {
			continue
		}
		ps.open[k] = nil
		for _, w := range hold.waiters {
			ps.buffer(w)
		}
		clear(hold.waiters)
		hold.waiters = hold.waiters[:0]
		ps.freeHolds.put(hold)
	}
}

// acceptRemote turns an arriving remote leg into a buffered destination
// walk attempt — the same canonical path whether the leg crossed a
// mailbox or was scheduled locally (same-shard groups).
//
//pmlint:root
func (ps *partShard) acceptRemote(rl *remoteLeg) {
	rl.leg = pleg{msgID: rl.msgID, rl: rl}
	ps.buffer(&rl.leg)
}

// processDst runs a destination leg: walk the destination-owned suffix,
// claim it, and render the verdict.
func (ps *partShard) processDst(l *pleg) {
	rl, n := l.rl, ps.pn.net
	res := n.walk(l, ps.open, rl.path, rl.split, true, rl.head, rl.wireBytes, rl.setupTimeout, ps.dstWires, ps.dstHops)
	ps.dstWires, ps.dstHops = res.wires, res.hops
	switch res.outcome {
	case walkParked:
		return
	case walkFailed:
		// The suffix could not form. The partial circuit on this side
		// holds until the teardown at the source's detection time; the
		// counters for the failure land here, where it was discovered.
		// The ack timeout anchors at the entry time, but when the circuit
		// formation itself outlasted the ack window (a first-wire stall is
		// exempt from the setup timeout), teardown cannot precede the
		// header's arrival at the failure point — floor it there plus the
		// NACK return, which also keeps the verdict beyond the engine's
		// conservative lookahead.
		detected := max(rl.entry+rl.ackTimeout, res.at+rl.nackLatency)
		ps.planes[rl.plane].lost(res.cut)
		n.hold(res.wires, res.hops, detected, ps, rl.plane)
		kind := finTimeout
		if res.cut {
			kind = finCut
		}
		rl.fin = finalizeMsg{rl: rl, msgID: rl.msgID, kind: kind, detected: detected}
		ps.sendVerdict(rl)
		return
	}

	// A CRC error is discovered (and counted) here; whether the sender
	// spends a same-plane retry or fails over is decided on the source
	// shard, which owns the send's budget — the failed-over and
	// crc-retries counters land there (psend.finish).
	bad := corrupted(rl.srcChecks, res.last) || corrupted(res.wires, res.last)
	n.hold(res.wires, res.hops, res.last, ps, rl.plane)
	arrived(&ps.planes, rl.plane, bad)
	rl.fin = finalizeMsg{
		rl: rl, msgID: rl.msgID, kind: finOK,
		last: res.last, firstByte: res.first, setupDone: res.head,
	}
	if bad {
		rl.fin.kind, rl.fin.detected = finCRC, res.last+rl.nackLatency
	} else {
		ps.scheduleArrival(rl.src, rl.dst, rl.payload, res.first, res.last)
	}
	ps.sendVerdict(rl)
}

// sendVerdict routes rl's finalize verdict back to the source shard at
// its effect time: the delivery (or NACK-visible) time for completed
// circuits, the detection time for silent failures. The first lies at
// least a route setup plus the central-to-leaf wire past the drain that
// walked the destination leg, the second at least NackLatency past it
// — both at or beyond the engine's lookahead (lookaheadFor). The
// destination shard must not touch rl afterwards: it now belongs to the
// source shard again.
func (ps *partShard) sendVerdict(rl *remoteLeg) {
	fm := &rl.fin
	at := fm.last
	if fm.kind == finCut || fm.kind == finTimeout {
		at = fm.detected
	}
	srcShard := ps.pn.part.NodeShard(rl.src)
	if srcShard == ps.id {
		ps.sh.AtPost(at, ps, fm)
		return
	}
	ps.pn.eng.PostPayload(ps.id, srcShard, at, ps.pn.shards[srcShard], fm)
}

// finalize applies a verdict on the source shard: claim or tear down
// the source half of the circuit, wake parked walkers, and hand the
// outcome to the protocol driver; then recycle the remote leg.
//
//pmlint:root
func (ps *partShard) finalize(fm *finalizeMsg) {
	rl := fm.rl
	p := rl.p
	if p == nil || p.rl != rl || p.msgID != fm.msgID {
		panic(fmt.Sprintf("netsim: shard %d finalizing unknown message %d", ps.id, fm.msgID))
	}
	p.rl = nil
	p.finish(fm)
	ps.putLeg(rl)
}
