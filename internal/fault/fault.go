// Package fault is the deterministic fault-injection engine for the
// duplicated interconnect. The paper's defining network feature is that
// every node owns two link ports on two separate crossbar hierarchies
// (Section 4) — a redundancy argument that only means something if the
// simulated machine can actually lose a link and keep running. This
// package injects faults at simulated cycle times and measures what the
// failover protocol (netsim.Transport.Send) makes of them.
//
// Four fault classes map onto the hardware the paper describes:
//
//   - link cut: a wire of the byte-parallel link (Section 3.2) is
//     severed and never carries another byte;
//   - crossbar stuck-busy: an output channel of the 16×16 crossbar ASIC
//     (Section 3.1) is held by a wedged arbiter, so circuits wanting it
//     wait forever;
//   - flit corruption: bytes crossing a wire inside a window arrive
//     garbled, caught by the link interface's CRC (Section 3.3);
//   - NI stall: a node's link interface stops accepting sends, as a
//     driver that quit draining the send FIFO would look (Section 3.3).
//
// Everything is a pure function of (campaign, seed): fault times and
// targets come from an explicit *rand.Rand threaded through Options,
// never from wall clocks or the global source, and schedules are applied
// in sorted simulated-time order. Two runs with the same seed are
// byte-identical; that property is tested and enforced in CI.
package fault

import (
	"fmt"
	"sort"

	"powermanna/internal/netsim"
	"powermanna/internal/sim"
)

// Kind enumerates the injectable fault classes.
type Kind int

// The fault classes, in the order the campaign engine names them.
const (
	// LinkCut severs a node's uplink wire on one plane.
	LinkCut Kind = iota
	// XbarStuck holds a crossbar output channel busy for a window.
	XbarStuck
	// FlitCorrupt garbles bytes crossing a wire during a window.
	FlitCorrupt
	// NIStall blocks a node's link interface from accepting sends.
	NIStall
	// CentralCut severs a wire leaving a central-stage crossbar — a
	// fault that hits no single node's uplink but degrades the routes of
	// every cluster behind the stage.
	CentralCut
)

// String names the kind as campaigns spell it.
func (k Kind) String() string {
	switch k {
	case LinkCut:
		return "link-cut"
	case XbarStuck:
		return "xbar-stuck"
	case FlitCorrupt:
		return "flit-corrupt"
	case NIStall:
		return "ni-stall"
	case CentralCut:
		return "central-cut"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one scheduled fault.
type Event struct {
	// Kind selects the fault class.
	Kind Kind
	// At is the injection time; Until ends the window for the windowed
	// kinds (XbarStuck, FlitCorrupt, NIStall) and is ignored for LinkCut.
	At, Until sim.Time
	// Plane is the network plane under attack (topo.NetworkA/B).
	Plane int
	// Node targets LinkCut, FlitCorrupt and NIStall: the node whose
	// uplink wire or link interface is hit.
	Node int
	// Xbar and Out target XbarStuck: crossbar ordinal and output channel.
	Xbar, Out int
}

// String renders the event for schedule listings.
func (e Event) String() string {
	switch e.Kind {
	case LinkCut:
		return fmt.Sprintf("%-12s at=%-14v plane=%d node=%d", e.Kind, e.At, e.Plane, e.Node)
	case XbarStuck:
		return fmt.Sprintf("%-12s at=%-14v until=%v plane=%d xbar=%d out=%d", e.Kind, e.At, e.Until, e.Plane, e.Xbar, e.Out)
	case CentralCut:
		return fmt.Sprintf("%-12s at=%-14v plane=%d xbar=%d out=%d", e.Kind, e.At, e.Plane, e.Xbar, e.Out)
	default:
		return fmt.Sprintf("%-12s at=%-14v until=%v plane=%d node=%d", e.Kind, e.At, e.Until, e.Plane, e.Node)
	}
}

// Injector applies a fault schedule to a network in simulated-time order.
// Stuck-busy windows acquire crossbar resources, which demand
// non-decreasing times like every Resource timeline — so the campaign
// loop calls ApplyUntil before each message it posts, never after.
type Injector struct {
	net    *netsim.Network
	events []Event
	next   int
}

// NewInjector sorts the schedule by injection time (stable, so equal
// times keep their generation order) and binds it to a network.
func NewInjector(net *netsim.Network, events []Event) *Injector {
	sorted := make([]Event, len(events))
	copy(sorted, events)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	return &Injector{net: net, events: sorted}
}

// ApplyUntil injects every not-yet-applied event with At <= now and
// reports how many fired.
func (in *Injector) ApplyUntil(now sim.Time) int {
	fired := 0
	for in.next < len(in.events) && in.events[in.next].At <= now {
		in.apply(in.events[in.next])
		in.next++
		fired++
	}
	return fired
}

// Events returns the sorted schedule (shared slice; do not mutate).
func (in *Injector) Events() []Event { return in.events }

func (in *Injector) apply(e Event) {
	switch e.Kind {
	case LinkCut:
		in.net.CutWire(e.Node, e.Plane, e.At)
	case CentralCut:
		// Crossbar devices follow the nodes in the topology's device
		// numbering; the cut severs the wire leaving (crossbar, out).
		in.net.CutWire(in.net.Topology().Nodes()+e.Xbar, e.Out, e.At)
	case FlitCorrupt:
		in.net.CorruptWire(e.Node, e.Plane, e.At, e.Until)
	case XbarStuck:
		in.net.Crossbar(e.Xbar).StickOutput(e.Out, e.At, e.Until)
	case NIStall:
		in.net.NI(e.Node).Links[e.Plane].Stall(e.At, e.Until)
	default:
		panic(fmt.Sprintf("fault: unknown kind %d", int(e.Kind)))
	}
}
