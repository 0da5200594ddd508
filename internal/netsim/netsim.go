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
	topo    *topo.Topology
	xbars   []*xbar.Crossbar
	linkCfg link.Config
	trans   link.Transceiver
	// wires are directed, indexed by the upstream end at
	// dev*xbar.Ports+port (topo's port-table stride): for hop i the wire
	// is the one leaving the previous device toward this crossbar. Nil
	// until first used; NewPartitioned creates every wired slot up front.
	wires []*link.Wire
	nis   []*ni.NI
	sent  int64
	// planes accumulates per-plane degraded-mode counters for the
	// failover protocol (failover.go).
	planes [ni.LinksPerNode]PlaneCounters
	// transports are the registered per-source send handles
	// (transport.go); Reset clears their plane-down caches.
	transports []*Transport
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
}

// New assembles a network over a topology with default PowerMANNA link
// and transceiver parameters. It seals the topology (topo.Seal), so the
// shared route table is allocated at set-up and the wiring is frozen.
func New(t *topo.Topology) *Network {
	t.Seal()
	n := &Network{
		topo:    t,
		linkCfg: link.Default("wire"),
		trans:   link.DefaultTransceiver(),
		wires:   make([]*link.Wire, (t.Nodes()+t.Crossbars())*xbar.Ports),
	}
	for i := 0; i < t.Crossbars(); i++ {
		n.xbars = append(n.xbars, xbar.New(t.CrossbarName(i)))
	}
	for i := 0; i < t.Nodes(); i++ {
		n.nis = append(n.nis, ni.New())
	}
	return n
}

// Topology returns the underlying topology.
func (n *Network) Topology() *topo.Topology { return n.topo }

// Crossbar returns crossbar ordinal i (for stats).
func (n *Network) Crossbar(i int) *xbar.Crossbar { return n.xbars[i] }

// NI returns node i's network interface.
func (n *Network) NI(i int) *ni.NI { return n.nis[i] }

// MessagesSent reports how many transits have been computed.
func (n *Network) MessagesSent() int64 { return n.sent }

// wire returns the directed wire leaving (dev, port), creating it on
// first use.
//
//pmlint:hotpath
func (n *Network) wire(dev, port int) *link.Wire {
	slot := dev*xbar.Ports + port
	w := n.wires[slot]
	if w == nil {
		w = link.NewWire(n.linkCfg)
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
	for i, x := range n.xbars {
		x.Trace(r, i)
	}
	for slot, w := range n.wires {
		if w != nil {
			w.Trace(r, trace.WireTrack(slot/xbar.Ports, slot%xbar.Ports, 0))
		}
	}
}

// Recorder returns the attached trace recorder (nil when tracing is off).
func (n *Network) Recorder() *trace.Recorder { return n.rec }

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
// The claim is computed in two passes. First the header walk peeks at
// each resource's free time to find the true setup schedule; then every
// resource is claimed from its setup until the message has fully passed.
// Sends are processed one at a time, so the peeked times stay valid.
func (n *Network) Send(at sim.Time, path topo.Path, payloadBytes int) (Transit, error) {
	return n.send(at, path, payloadBytes, 0, 0)
}

// send is Send with fault awareness: a positive setupTimeout bounds the
// wait at any single busy resource (wire entry or crossbar output) before
// the attempt is abandoned with a DownError, and severed wires on the
// path abort the attempt outright.
//
// A positive failHold models the teardown of a failed attempt: the
// partial circuit the header built stays claimed until at+failHold (the
// sender's ack-timeout detection, when the driver gives up and the
// switches reclaim the channels). Resources the header would only have
// reached after that teardown are not claimed — the header never got
// there. A zero failHold keeps the old behaviour: failed attempts claim
// nothing (the raw Send API and the OS stream, which retries on its own
// cadence).
//
//pmlint:hotpath
func (n *Network) send(at sim.Time, path topo.Path, payloadBytes int, setupTimeout, failHold sim.Time) (Transit, error) {
	if payloadBytes < 0 {
		return Transit{}, fmt.Errorf("netsim: negative payload")
	}
	n.sent++
	wireBytes := ni.WireBytes(len(path.RouteBytes), payloadBytes)
	if len(path.Hops) == 0 {
		// Self-delivery: no network involved.
		return Transit{SetupDone: at, FirstByte: at, LastByte: at, WireBytes: 0}, nil
	}

	byteTime := n.linkCfg.TransferTime(1)
	bodyTime := n.linkCfg.TransferTime(wireBytes - len(path.RouteBytes))

	wireClaims := make([]sendWireClaim, 0, len(path.Hops)+1)
	hopClaims := make([]sendHopClaim, 0, len(path.Hops))

	// Pass 1: header walk, peeking at free times.
	head := at
	fromDev, fromPort := path.Src, path.Network
	remaining := wireBytes
	for _, hop := range path.Hops {
		w := n.wire(fromDev, fromPort)
		wStart := sim.Max(head, w.FreeAt())
		if w.DeadAt(wStart) {
			n.teardownPartial(wireClaims, hopClaims, at, failHold)
			return Transit{}, &DownError{Plane: path.Network, Cut: true, At: wStart}
		}
		// The setup timeout does not cover the first wire: a wait there is
		// the sender's own uplink draining earlier traffic, and the driver
		// watches that progress through the status register (Section 3.3)
		// instead of declaring the plane dead. A severed uplink is still
		// caught by DeadAt above, a wedged NI by ReadyAt's stall windows.
		if setupTimeout > 0 && len(wireClaims) > 0 && wStart-head > setupTimeout {
			n.teardownPartial(wireClaims, hopClaims, at, failHold)
			return Transit{}, &DownError{Plane: path.Network, At: head + setupTimeout}
		}
		wireClaims = append(wireClaims, sendWireClaim{w: w, start: wStart, bytes: remaining})
		lat := n.linkCfg.PropagationDelay + byteTime
		if hop.AsyncIn {
			lat += n.trans.Latency
		}
		headArrive := wStart + lat
		x := n.xbars[hop.Xbar]
		setupStart := sim.Max(headArrive, x.OutputFreeAt(hop.Out))
		if setupTimeout > 0 && setupStart-headArrive > setupTimeout {
			n.teardownPartial(wireClaims, hopClaims, at, failHold)
			return Transit{}, &DownError{Plane: path.Network, At: headArrive + setupTimeout}
		}
		hopClaims = append(hopClaims, sendHopClaim{x: x, out: hop.Out, requested: headArrive, start: setupStart})
		head = setupStart + xbar.RouteSetup
		fromDev, fromPort = n.topo.Nodes()+hop.Xbar, hop.Out
		remaining-- // the crossbar consumed one route byte
	}
	lastWire := n.wire(fromDev, fromPort)
	lwStart := sim.Max(head, lastWire.FreeAt())
	if lastWire.DeadAt(lwStart) {
		n.teardownPartial(wireClaims, hopClaims, at, failHold)
		return Transit{}, &DownError{Plane: path.Network, Cut: true, At: lwStart}
	}
	if setupTimeout > 0 && lwStart-head > setupTimeout {
		n.teardownPartial(wireClaims, hopClaims, at, failHold)
		return Transit{}, &DownError{Plane: path.Network, At: head + setupTimeout}
	}
	wireClaims = append(wireClaims, sendWireClaim{w: lastWire, start: lwStart, bytes: remaining})
	first := lwStart + n.linkCfg.PropagationDelay + byteTime
	last := first + bodyTime

	// The circuit forms. A wire severed while the body streams truncates
	// the message; a corruption window garbles it. Both surface only at
	// the destination's CRC check, so the transit still claims the path.
	corrupted := false
	for _, c := range wireClaims {
		if cut, ok := c.w.CutTime(); ok && cut > c.start && cut <= last {
			corrupted = true
		}
		if c.w.CorruptedIn(c.start, last) {
			corrupted = true
		}
	}

	// Pass 2: claim the full circuit until the close command passes.
	for _, c := range wireClaims {
		c.w.Hold(c.start, last, c.bytes)
	}
	for _, c := range hopClaims {
		c.x.HoldOutput(c.requested, c.start, last, c.out)
	}
	if n.rec.Enabled() {
		track, cat := trace.NodeTrack(path.Src), "netsim"
		if n.osSending {
			track, cat = trace.OSTrack(), "os"
		}
		n.rec.SpanArg(track, cat, "msg", at, last,
			fmt.Sprintf("%d->%d plane %s, %dB", path.Src, path.Dst, planeName(path.Network), payloadBytes)) //pmlint:allow hotpath trace-gated formatting, tracing runs pay for the labels
		n.rec.Span(track, cat, "setup", at, head)
		n.rec.Span(track, cat, "stream", head, last)
		if corrupted {
			n.rec.Instant(track, cat, "crc-corrupt", last)
		}
	}
	return Transit{SetupDone: head, FirstByte: first, LastByte: last, WireBytes: wireBytes, Corrupted: corrupted}, nil
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
func (n *Network) idealTransit(path topo.Path, payloadBytes int) sim.Time {
	if len(path.Hops) == 0 {
		return 0 // self-delivery: no network involved
	}
	wireBytes := ni.WireBytes(len(path.RouteBytes), payloadBytes)
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

// sendWireClaim and sendHopClaim are the peeked pass-1 reservations of
// one send attempt, applied in pass 2 (or held to a failed attempt's
// teardown).
type sendWireClaim struct {
	w     *link.Wire
	start sim.Time
	bytes int
}

type sendHopClaim struct {
	x                *xbar.Crossbar
	out              int
	requested, start sim.Time
}

// teardownPartial claims a failed attempt's partial circuit until the
// teardown at entry+failHold — the sender's detection time, when the
// driver gives up and the switches reclaim the channels. Resources the
// header would only have reached after the teardown are skipped; a zero
// failHold claims nothing (the unguarded Send path).
func (n *Network) teardownPartial(wires []sendWireClaim, hops []sendHopClaim, entry, failHold sim.Time) {
	if failHold <= 0 {
		return
	}
	until := entry + failHold
	for _, c := range wires {
		if c.start < until {
			c.w.Hold(c.start, until, c.bytes)
		}
	}
	for _, c := range hops {
		if c.start < until {
			c.x.HoldOutput(c.requested, c.start, until, c.out)
		}
	}
}

// Reset clears all crossbar and wire timelines, NI state, per-plane
// counters, the plane-down cache of every registered transport, and
// re-arms the attached OS stream (if any) to its start — a reset network
// re-renders byte-identically for the same send sequence, faulted
// history or not.
func (n *Network) Reset() {
	for _, x := range n.xbars {
		x.Reset()
	}
	for _, w := range n.wires {
		if w != nil {
			w.Reset()
		}
	}
	for _, d := range n.nis {
		d.Reset()
	}
	n.sent = 0
	n.planes = [ni.LinksPerNode]PlaneCounters{}
	for _, t := range n.transports {
		t.resetFaultState()
	}
	if n.os != nil {
		n.os.rearm()
	}
}
