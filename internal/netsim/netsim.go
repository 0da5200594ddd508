// Package netsim assembles a runnable network from a topology: one
// crossbar instance per topology crossbar, one wire pair per physical
// link, asynchronous transceivers on inter-cabinet links. It computes
// message transit times under wormhole circuit switching:
//
//   - the header advances hop by hop, each crossbar consuming one route
//     byte and spending the 0.2 µs through-routing time (plus any wait
//     for a busy output channel),
//   - once the circuit stands, the body streams at the link rate with
//     cut-through (the first byte arrives long before the last),
//   - every traversed output channel and wire stays claimed until the
//     message's close command passes, so concurrent messages contend
//     exactly where the hardware would make them contend.
//
// Endpoint FIFO effects (the four-line send/receive FIFOs of the link
// interface) belong to the driver model in internal/comm; Transit assumes
// the endpoints keep up, which holds for latency measurements and routed
// examples.
//
// Shard locality (the internal/psim contract): a Network and everything
// hanging off it — crossbars, wires, transports, the attached recorder
// and registry — is single-shard state. All events touching one Network
// must run on the same psim shard (fault campaigns ensure this by
// building one Network per degradation row); nothing in this package
// synchronizes, and the shard-safety analyzers hold it to that.
package netsim

import (
	"fmt"

	"powermanna/internal/link"
	"powermanna/internal/metrics"
	"powermanna/internal/ni"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
	"powermanna/internal/trace"
	"powermanna/internal/xbar"
)

// Network is an instantiated interconnect.
type Network struct {
	topo  *topo.Topology
	xbars []xbar.Crossbar
	// linkCfg is every wire's link configuration, validated once by New.
	linkCfg link.Config
	trans   link.Transceiver
	// wires are directed, indexed by the upstream end at
	// dev*xbar.Ports+port (topo's port-table stride): for hop i the wire
	// is the one leaving the previous device toward this crossbar. Nil
	// until first used; NewPartitioned creates every wired slot up front.
	// Wires are carved from slabs the network owns, never allocated one
	// by one.
	wires []*link.Wire
	// spare is the unused tail of the current wire slab (wire).
	spare []link.Wire
	nis   []ni.NI
	// planes accumulates per-plane degraded-mode counters for the
	// failover protocol (failover.go).
	planes [ni.LinksPerNode]PlaneCounters
	// transports are the registered per-source send handles
	// (transport.go), in the slabs Transport and Transports carved them
	// from; Reset clears their plane-down caches.
	transports [][]Transport
	// os is the optional background system-software stream on plane B
	// (osstream.go); nil when no stream is attached.
	os *osStream
	// rec, when non-nil, records the timeline of every send: message
	// spans per source node, circuit holds per crossbar output and wire,
	// failover attempts per transport. Attached via SetRecorder.
	rec *trace.Recorder
	// met holds the resolved metrics instruments the reliable-send path
	// feeds (netmetrics.go); the zero value is the "metrics off" state.
	met netInstruments
	// mreg is the attached registry itself, kept so late labelling
	// (Transport.SetTenant) can resolve additional instruments; tenants
	// are the labels declared so far, indexed by Transport.tenant.
	mreg    *metrics.Registry
	tenants []string
	// osSending marks sends issued by the background OS stream so their
	// message spans land on the OS track instead of a node track.
	osSending bool
	// wireBuf/hopBuf are the claim buffers of send's walks, reused by
	// every attempt: one goroutine drives a network's synchronous path.
	wireBuf []partWireClaim
	hopBuf  []partHopClaim
}

// New assembles a network over a topology with default PowerMANNA link
// and transceiver parameters. It seals the topology (topo.Seal), so the
// shared route table is allocated at set-up and the wiring is frozen.
func New(t *topo.Topology) *Network {
	t.Seal()
	n := &Network{
		topo:    t,
		xbars:   make([]xbar.Crossbar, t.Crossbars()),
		linkCfg: link.Default("wire"),
		trans:   link.DefaultTransceiver(),
		wires:   make([]*link.Wire, (t.Nodes()+t.Crossbars())*xbar.Ports),
		nis:     make([]ni.NI, t.Nodes()),
	}
	if err := n.linkCfg.Validate(); err != nil {
		panic(err)
	}
	for i := range n.xbars {
		n.xbars[i] = xbar.New(t.CrossbarName(i))
	}
	return n
}

// wireChunk is the size of the slabs a lazily wired network carves its
// wires from: a run that touches only part of the fabric (a System256
// campaign row reaches 280 to 550 of its 1,024 wires) allocates a few
// chunks instead of one wire per touched port or a slab for every port.
const wireChunk = 64

// Topology returns the underlying topology.
func (n *Network) Topology() *topo.Topology { return n.topo }

// Crossbar returns crossbar ordinal i (for stats).
func (n *Network) Crossbar(i int) *xbar.Crossbar { return &n.xbars[i] }

// NI returns node i's network interface.
func (n *Network) NI(i int) *ni.NI { return &n.nis[i] }

// wire returns the directed wire leaving (dev, port), carving it from
// the current slab on first use (a fresh wireChunk slab once spare runs
// out).
//
//pmlint:hotpath
func (n *Network) wire(dev, port int) *link.Wire {
	slot := dev*xbar.Ports + port
	w := n.wires[slot]
	if w == nil {
		if len(n.spare) == 0 {
			n.spare = make([]link.Wire, wireChunk)
		}
		w, n.spare = &n.spare[0], n.spare[1:]
		if n.rec.Enabled() {
			w.Trace(n.rec, trace.WireTrack(dev, port, 0))
		}
		n.wires[slot] = w
	}
	return w
}

// checkWire rejects a fault-injection wire address outside the wire
// table, which would otherwise alias another device's slot.
func (n *Network) checkWire(dev, port int) {
	if dev < 0 || dev*xbar.Ports >= len(n.wires) || port < 0 || port >= xbar.Ports {
		panic(fmt.Sprintf("netsim: no wire slot at device %d port %d", dev, port))
	}
}

// SetRecorder attaches a trace recorder to the network: every crossbar
// and wire (existing and lazily created) records circuit occupancy, and
// Send records per-message spans. A nil recorder detaches everything —
// the default state, costing instrumented paths one nil check.
func (n *Network) SetRecorder(r *trace.Recorder) {
	n.rec = r
	for i := range n.xbars {
		n.xbars[i].Trace(r, i)
	}
	for slot, w := range n.wires {
		if w != nil {
			w.Trace(r, trace.WireTrack(slot/xbar.Ports, slot%xbar.Ports, 0))
		}
	}
}

// Transit describes the timing of one message.
type Transit struct {
	// SetupDone is when the full wormhole circuit stands.
	SetupDone sim.Time
	// FirstByte and LastByte are body arrival times at the destination NI.
	FirstByte, LastByte sim.Time
	// WireBytes is the on-wire message length including header, CRC and
	// close command.
	WireBytes int
	// Corrupted marks a message that arrived but fails the receive-side
	// CRC check (Section 3.3): it crossed a wire inside an injected
	// corruption window, or a wire was severed mid-stream and the tail
	// never arrived. The sender does not see this; the receiver does.
	Corrupted bool
}

// DownError reports a send whose wormhole circuit could not form on the
// chosen plane: the header reached a severed wire, or waiting for a busy
// resource exceeded the caller's setup timeout (a stuck-busy crossbar
// output holds its channel forever). The sender itself learns of the
// failure only through the reliability protocol's acknowledgment timeout;
// At records when the condition arose inside the network.
type DownError struct {
	// Plane is the network plane (topo.NetworkA/B) the send was on.
	Plane int
	// Cut distinguishes a severed wire from a setup timeout.
	Cut bool
	// At is when the failure condition was met on the path walk.
	At sim.Time
}

// Error implements error.
func (e *DownError) Error() string {
	if e.Cut {
		return fmt.Sprintf("netsim: plane %d down: severed wire at %v", e.Plane, e.At)
	}
	return fmt.Sprintf("netsim: plane %d down: circuit setup timed out at %v", e.Plane, e.At)
}

// CutWire severs the directed wire leaving (dev, port) from t onward —
// the link-cut fault. Device indexing follows the topology: 0..Nodes()-1
// are nodes (port = network plane), then crossbars (port = output
// channel).
func (n *Network) CutWire(dev, port int, t sim.Time) {
	n.checkWire(dev, port)
	n.wire(dev, port).CutAt(t)
}

// CorruptWire schedules a corruption window on the directed wire leaving
// (dev, port): messages crossing it during [from, until) arrive garbled
// and fail the destination NI's CRC check.
func (n *Network) CorruptWire(dev, port int, from, until sim.Time) {
	n.checkWire(dev, port)
	n.wire(dev, port).CorruptBetween(from, until)
}

// Send computes the transit of a payload of the given size along path,
// entering the network no earlier than at, under wormhole circuit
// semantics: the header advances as far as it can, waits at busy output
// channels, and the whole path — every wire and crossbar output the worm
// occupies — stays claimed until the close command passes. Blocking
// therefore cascades: a worm stalled downstream keeps its upstream links
// busy, which is exactly the behaviour that separates mesh topologies
// from the crossbar hierarchy in the blocking experiment.
//
// A header that reaches a severed wire returns a *DownError, and the
// attempt claims nothing.
func (n *Network) Send(at sim.Time, path topo.Path, payloadBytes int) (Transit, error) {
	if payloadBytes < 0 {
		return Transit{}, fmt.Errorf("netsim: negative payload")
	}
	tr, res := n.send(at, &path, payloadBytes, 0, 0)
	if res.outcome == walkFailed {
		return Transit{}, &DownError{Plane: path.Network, Cut: res.cut, At: res.at}
	}
	return tr, nil
}

// send runs one attempt synchronously: the header walks the whole path
// (walk with no open-hold table) and the circuit it forms is claimed
// until the close command passes. Sends are processed one at a time, so
// the walk's peeked free times stay valid until the claim. A positive
// setupTimeout bounds the wait at any single busy resource (walk).
//
// A failed walk holds its partial circuit until the teardown at
// at+failHold (the sender's ack-timeout detection, when the driver gives
// up and the switches reclaim the channels). A zero failHold claims
// nothing: the raw Send API and the OS stream, which retries on its own
// cadence. The returned walk's claim slices are the network's reused
// buffers, overwritten by the next send.
//
//pmlint:hotpath
func (n *Network) send(at sim.Time, path *topo.Path, payloadBytes int, setupTimeout, failHold sim.Time) (Transit, walkRes) {
	if len(path.Hops) == 0 {
		// Self-delivery: no network involved.
		return Transit{SetupDone: at, FirstByte: at, LastByte: at}, walkRes{}
	}
	wireBytes := wireBytesFor(path, payloadBytes)
	res := n.walk(nil, nil, path, len(path.Hops), false, at, wireBytes, setupTimeout, n.wireBuf, n.hopBuf)
	n.wireBuf, n.hopBuf = res.wires, res.hops
	if res.outcome == walkFailed {
		n.hold(res.wires, res.hops, at+failHold, nil, path.Network)
		return Transit{}, res
	}
	bad := corrupted(res.wires, res.last)
	n.hold(res.wires, res.hops, res.last, nil, path.Network)
	recordMsg(n.rec, n.osSending, path, payloadBytes, at, res.head, res.last, bad)
	return Transit{SetupDone: res.head, FirstByte: res.first, LastByte: res.last, WireBytes: wireBytes, Corrupted: bad}, res
}

// resKey densely numbers one claimable resource: a directed wire at its
// Network.wires slot (dev*xbar.Ports+port), then a crossbar output
// channel after every wire slot (hopRes).
type resKey int

func wireRes(dev, port int) resKey { return resKey(dev*xbar.Ports + port) }

func (n *Network) hopRes(ord, out int) resKey {
	return resKey(len(n.wires) + ord*xbar.Ports + out)
}

// walkRes is the outcome of one header walk.
type walkRes struct {
	outcome walkOutcome
	at      sim.Time // failure time (cut/timeout)
	cut     bool
	wires   []partWireClaim
	hops    []partHopClaim
	head    sim.Time // header time after the segment
	first   sim.Time // body arrival (complete walks only)
	last    sim.Time
}

type walkOutcome int

const (
	walkOK walkOutcome = iota
	walkParked
	walkFailed
)

// partWireClaim and partHopClaim are the peeked reservations of one
// walk, applied by hold once the walk's fate is known.
type partWireClaim struct {
	w     *link.Wire
	key   resKey
	start sim.Time
}

type partHopClaim struct {
	ord, out         int
	key              resKey
	requested, start sim.Time
}

// walk is the wormhole header walk, the one both executors run. It
// advances the header over one segment of path, peeking at each wire's
// and crossbar output's free time to find the true setup schedule, and
// collects the claims hold applies once the walk's fate is known. The
// segment is the whole path on the synchronous path (split =
// len(path.Hops)); on the split-phase path it is the source-owned prefix
// up to the boundary crossbar at split, or (dstLeg) the destination-owned
// suffix from that crossbar's output arbitration.
//
// open is the walking shard's open-hold table, nil on the synchronous
// path: a walker reaching an open-held resource parks l there and
// claims nothing. A positive setupTimeout bounds the wait at any single
// busy resource; a severed wire fails the walk outright. All times are
// the walker's carried model times, never an event clock. The claims
// append to wires[:0] and hops[:0], the caller's buffers, which come
// back (grown if need be) in the result.
//
//pmlint:hotpath
func (n *Network) walk(l *pleg, open []*openHold, path *topo.Path, split int, dstLeg bool, entry sim.Time,
	wireBytes int, setupTimeout sim.Time, wires []partWireClaim, hops []partHopClaim) walkRes {

	byteTime := n.linkCfg.TransferTime(1)
	k := len(path.Hops)
	lo, hi := 0, split
	if dstLeg {
		lo, hi = split, k
	}
	head := entry
	fromDev, fromPort := path.Src, path.Network
	if dstLeg {
		// The source leg already crossed the wire into the boundary
		// crossbar; this leg starts at its output arbitration.
		fromDev, fromPort = n.topo.Nodes()+path.Hops[split].Xbar, path.Hops[split].Out
	}
	res := walkRes{outcome: walkOK, wires: wires[:0], hops: hops[:0]}

	for i := lo; i < hi; i++ {
		hop := path.Hops[i]
		if !(dstLeg && i == lo) {
			wStart, ok := n.peekWire(&res, l, open, fromDev, fromPort, head, setupTimeout, i == 0)
			if !ok {
				return res
			}
			lat := n.linkCfg.PropagationDelay + byteTime
			if hop.AsyncIn {
				lat += n.trans.Latency
			}
			head = wStart + lat
		}
		key := n.hopRes(hop.Xbar, hop.Out)
		if park(open, key, l) {
			res.outcome = walkParked
			return res
		}
		setupStart := sim.Max(head, n.xbars[hop.Xbar].OutputFreeAt(hop.Out))
		if setupTimeout > 0 && setupStart-head > setupTimeout {
			res.outcome, res.at = walkFailed, head+setupTimeout
			return res
		}
		res.hops = append(res.hops, partHopClaim{ord: hop.Xbar, out: hop.Out, key: key, requested: head, start: setupStart})
		head = setupStart + xbar.RouteSetup
		fromDev, fromPort = n.topo.Nodes()+hop.Xbar, hop.Out
	}

	if !dstLeg && split < k {
		// Source leg of a split send: walk the wire into the boundary
		// crossbar (source-owned, per the up/down ownership rule) and stop
		// with the header's arrival there.
		wStart, ok := n.peekWire(&res, l, open, fromDev, fromPort, head, setupTimeout, false)
		if !ok {
			return res
		}
		lat := n.linkCfg.PropagationDelay + byteTime
		if path.Hops[split].AsyncIn {
			lat += n.trans.Latency
		}
		res.head = wStart + lat
		return res
	}

	// Complete walk (full path or destination leg): the last wire to the
	// destination node.
	lwStart, ok := n.peekWire(&res, l, open, fromDev, fromPort, head, setupTimeout, false)
	if !ok {
		return res
	}
	res.head = head
	res.first = lwStart + n.linkCfg.PropagationDelay + byteTime
	res.last = res.first + n.linkCfg.TransferTime(wireBytes-len(path.RouteBytes))
	return res
}

// peekWire is one wire step of walk: the header reaching the wire
// leaving (dev, port) at head. It appends the claim and returns the
// wire's start time, or records in res why the walk stops there —
// parked on an open hold, severed, or timed out — and returns false.
// The setup timeout does not cover the first wire: a wait there is the
// sender's own uplink draining earlier traffic, which the driver watches
// through the status register (Section 3.3) instead of declaring the
// plane dead; a wedged NI shows up in ReadyAt's stall windows instead.
//
//pmlint:hotpath
func (n *Network) peekWire(res *walkRes, l *pleg, open []*openHold, dev, port int, head, setupTimeout sim.Time, first bool) (sim.Time, bool) {
	key := wireRes(dev, port)
	if park(open, key, l) {
		res.outcome = walkParked
		return 0, false
	}
	w := n.wire(dev, port)
	wStart := sim.Max(head, w.FreeAt())
	if w.DeadAt(wStart) {
		res.outcome, res.at, res.cut = walkFailed, wStart, true
		return 0, false
	}
	if setupTimeout > 0 && !first && wStart-head > setupTimeout {
		res.outcome, res.at = walkFailed, head+setupTimeout
		return 0, false
	}
	res.wires = append(res.wires, partWireClaim{w: w, key: key, start: wStart})
	return wStart, true
}

// hold claims a walk's wires and crossbar outputs until `until`: the
// close command passing for a completed circuit, the teardown for a
// failed one. Claims that start at or after until are skipped — the
// header never got there before the teardown. The synchronous path (ps
// nil) holds outputs through xbar.HoldOutput, which keeps the crossbar's
// opened and blocked counters; the split-phase path claims them on
// shard ps (claimHop).
func (n *Network) hold(wires []partWireClaim, hops []partHopClaim, until sim.Time, ps *partShard, plane int) {
	for _, c := range wires {
		if c.start < until {
			c.w.Hold(c.start, until)
		}
	}
	for _, c := range hops {
		switch {
		case c.start >= until:
		case ps == nil:
			n.xbars[c.ord].HoldOutput(c.requested, c.start, until, c.out)
		default:
			ps.claimHop(c, until, plane)
		}
	}
}

// corrupted renders the CRC verdict over the wire claims of a circuit
// whose last byte passes at last: a wire severed mid-stream or crossed
// inside a corruption window garbles the frame. Both surface only at the
// destination's CRC check, so the transit still claims the path.
func corrupted(claims []partWireClaim, last sim.Time) bool {
	for _, c := range claims {
		if cut, ok := c.w.CutTime(); ok && cut > c.start && cut <= last {
			return true
		}
		if c.w.CorruptedIn(c.start, last) {
			return true
		}
	}
	return false
}

// arrived counts a completed circuit's CRC verdict, as the destination
// link interface renders it, in planes: a CRC error or a delivery.
func arrived(planes *[ni.LinksPerNode]PlaneCounters, plane int, bad bool) {
	if bad {
		planes[plane].CRCErrors++
		return
	}
	planes[plane].Delivered++
}

// recordMsg records one completed circuit's message spans: the envelope
// from entry to the last byte, the setup walk and the body stream, plus
// the CRC-corrupt marker. Background OS messages (os) land on the OS
// track, every other message on its source node's track.
//
//pmlint:hotpath
func recordMsg(rec *trace.Recorder, os bool, path *topo.Path, payloadBytes int, entry, setupDone, last sim.Time, bad bool) {
	if !rec.Enabled() {
		return
	}
	track, cat := trace.NodeTrack(path.Src), "netsim"
	if os {
		track, cat = trace.OSTrack(), "os"
	}
	rec.SpanArg(track, cat, "msg", entry, last,
		fmt.Sprintf("%d->%d plane %s, %dB", path.Src, path.Dst, planeName(path.Network), payloadBytes)) //pmlint:allow hotpath trace-gated formatting, tracing runs pay for the labels
	rec.Span(track, cat, "setup", entry, setupDone)
	rec.Span(track, cat, "stream", setupDone, last)
	if bad {
		rec.Instant(track, cat, "crc-corrupt", last)
	}
}

// wireBytesFor is the on-wire length of a payload along a path.
func wireBytesFor(path *topo.Path, payloadBytes int) int {
	return ni.WireBytes(len(path.RouteBytes), payloadBytes)
}

// idealTransit is the zero-contention sender-observed transit time of a
// payload along path: the same walk as send with every wait removed —
// entry at the requested time, every wire free, every crossbar output
// granted on arrival. A pure function of the route and the payload,
// which is what makes it the Wire component of the latency
// decomposition: the delivering attempt's span minus this is exactly
// the contention it absorbed (Decomp.Arb), never negative because every
// wait in the real walk is a max() against the unloaded schedule.
//
//pmlint:hotpath
func (n *Network) idealTransit(path *topo.Path, payloadBytes int) sim.Time {
	if len(path.Hops) == 0 {
		return 0 // self-delivery: no network involved
	}
	wireBytes := wireBytesFor(path, payloadBytes)
	byteTime := n.linkCfg.TransferTime(1)
	var t sim.Time
	for _, hop := range path.Hops {
		t += n.linkCfg.PropagationDelay + byteTime
		if hop.AsyncIn {
			t += n.trans.Latency
		}
		t += xbar.RouteSetup
	}
	t += n.linkCfg.PropagationDelay + byteTime
	return t + n.linkCfg.TransferTime(wireBytes-len(path.RouteBytes))
}

// Reset clears all crossbar and wire timelines, NI state, per-plane
// counters, the plane-down cache of every registered transport, and
// re-arms the attached OS stream (if any) to its start — a reset network
// re-renders byte-identically for the same send sequence, faulted
// history or not.
func (n *Network) Reset() {
	for i := range n.xbars {
		n.xbars[i].Reset()
	}
	for _, w := range n.wires {
		if w != nil {
			w.Reset()
		}
	}
	for i := range n.nis {
		n.nis[i].Reset()
	}
	n.planes = [ni.LinksPerNode]PlaneCounters{}
	for _, ts := range n.transports {
		for i := range ts {
			ts[i].resetFaultState()
		}
	}
	if n.os != nil {
		n.os.rearm()
	}
}
