// Package ni models the PowerMANNA network interface (Section 3.3 of the
// paper): deliberately not a network interface controller. Instead of an
// embedded processor with DMA, the interface ASIC holds, per link and per
// direction, a FIFO of 32 64-bit words that decouples the CPU/memory bus
// from the link, plus memory-mapped control registers; the node CPUs
// provide "all the functionality of a powerful NIC by directly accessing
// the link interface" with program-controlled I/O. The ASIC also
// generates and checks a CRC per message.
//
// Each PowerMANNA node carries two such link interfaces — one per network
// plane of the duplicated communication system.
//
// The 32×64-bit FIFO is exactly four 64-byte cache lines. That number is
// load-bearing: Section 5.2 traces the disappointing bidirectional
// bandwidth (Figure 12) to the driver having to turn around between
// filling at most four lines of the send FIFO and draining at most four
// lines of the receive FIFO.
//
// This package keeps what the wormhole walk in internal/netsim drives:
// the geometry, the on-wire message length and the injected stall
// windows. The CRC check is modelled at timing level, not as a byte
// codec: a message whose circuit crossed a corruption window, or lost
// its tail to a mid-stream cut, arrives corrupt, the destination counts
// a CRC error and the sender sees a NACK.
package ni

import "powermanna/internal/sim"

// Default geometry from Section 3.3.
const (
	// FIFOWords is the per-direction FIFO depth in 64-bit words.
	FIFOWords = 32
	// WordBytes is the FIFO word size.
	WordBytes = 8
	// FIFOBytes is the per-direction capacity: four 64-byte cache lines.
	FIFOBytes = FIFOWords * WordBytes
	// LinksPerNode is the number of link interfaces on a node.
	LinksPerNode = 2
)

// stallWindow is one injected interval [from, until) during which the
// link interface accepts no new sends (internal/fault's NI-stall fault).
type stallWindow struct {
	from, until sim.Time
}

// LinkIF is one link interface. Its FIFO occupancy belongs to the driver
// model in internal/comm, so it keeps only the injected stall state; the
// zero value is a healthy interface.
type LinkIF struct {
	stalls []stallWindow
}

// Stall injects a fault window [from, until) during which the interface
// accepts no new sends — a wedged interface ASIC or a driver that stopped
// draining the send FIFO. Sends presented inside the window are deferred
// to the window's end; the fault-aware send path fails over to the other
// plane when the deferral exceeds its patience.
func (l *LinkIF) Stall(from, until sim.Time) {
	if until <= from {
		return
	}
	l.stalls = append(l.stalls, stallWindow{from: from, until: until})
}

// ReadyAt reports when a send presented at `at` can actually enter the
// interface, deferring past every stall window covering that instant.
func (l *LinkIF) ReadyAt(at sim.Time) sim.Time {
	// Windows may abut or nest; iterate to a fixpoint. The list is tiny
	// (faults per campaign, not per message).
	for moved := true; moved; {
		moved = false
		for _, w := range l.stalls {
			if w.from <= at && at < w.until {
				at = w.until
				moved = true
			}
		}
	}
	return at
}

// Reset clears the injected stall windows.
func (l *LinkIF) Reset() { l.stalls = nil }

// NI is a node's full network interface: two link interfaces, one per
// network plane. The zero value is ready to use.
type NI struct {
	Links [LinksPerNode]LinkIF
}

// Reset clears both link interfaces.
func (n *NI) Reset() {
	for i := range n.Links {
		n.Links[i].Reset()
	}
}

// Frame layout after the route bytes (which the crossbars consume):
// 2-byte payload length, payload, 2-byte CRC-16 over the payload. The
// route prefix varies per path; WireBytes accounts for it.
const frameOverhead = 4 // length + CRC

// WireBytes reports the total on-wire length of a message with the given
// route prefix and payload sizes, including the close command byte that
// tears the circuit down.
func WireBytes(routeLen, payloadLen int) int {
	return routeLen + frameOverhead + payloadLen + 1
}
