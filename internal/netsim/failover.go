// Plane-failover routing over the duplicated communication system.
//
// The paper's Section 4 motivates the two network planes with bandwidth
// and with software separation (system software on one network,
// applications on the other), and Section 3.3 gives every message a CRC
// "so communication is not only efficient but also reliable". This file
// supplies the missing piece between the two: a driver-level reliability
// protocol that detects a dead or degraded plane A and re-sends over
// plane B, with every detection and retry cost accounted in simulated
// time. It is the mechanism the fault campaigns (internal/fault,
// cmd/pmfault) exercise.
//
// The protocol is deliberately simple — the PowerMANNA link interface has
// no hardware retry, so reliability is the driver's job, exactly like the
// PIO-driven send path of Section 3.3:
//
//   - the sender posts the message on the preferred plane and arms an
//     acknowledgment timeout; silence (cut wire, circuit that never
//     forms) is detected at entry + AckTimeout.
//   - a receiver whose CRC check fails returns a NACK, detected at
//     LastByte + NackLatency — much sooner than the timeout.
//   - either way the sender backs off RetryBackoff and retries on the
//     other plane. Soft failures (timeouts, NACKs) allow re-cycling the
//     planes up to MaxAttempts, since congestion and death look alike
//     from the sender; a severed wire is hard evidence that rules its
//     plane out. A message exhausting every option is reported failed,
//     never silently dropped.
//   - a send FIFO stalled beyond SetupTimeout is abandoned without ever
//     entering the network — the driver polls the status register
//     (Section 3.3) and can tell the interface is wedged.
//
// The sender's side of the protocol is the cursor in protocol.go, which
// both send executors (Transport.Send and the split-phase psend) drive.
package netsim

import (
	"fmt"

	"powermanna/internal/sim"
	"powermanna/internal/stats"
	"powermanna/internal/topo"
)

// Calibrated failover-protocol constants. The paper's system-level bound
// is "less than 4 µs latency for small messages" (Section 1); detection
// windows are sized a small multiple above it so a healthy-but-contended
// plane is not abandoned prematurely.
const (
	// DefaultSetupTimeout bounds the wait at any single busy resource —
	// twice the paper's small-message latency bound.
	DefaultSetupTimeout = 8 * sim.Microsecond
	// DefaultAckTimeout is the sender's wait for the delivery
	// acknowledgment — three times the latency bound, covering the ack's
	// own return trip.
	DefaultAckTimeout = 12 * sim.Microsecond
	// DefaultNackLatency is the receiver's CRC-fail NACK return time: a
	// small message back across the (healthy) plane plus driver handling.
	DefaultNackLatency = 1 * sim.Microsecond
	// DefaultRetryBackoff is the driver pause between detecting a failed
	// attempt and re-posting on the other plane (status-register polls
	// and send-FIFO refill, Section 3.3).
	DefaultRetryBackoff = 500 * sim.Nanosecond
	// DefaultReprobeInterval is how long a Transport's plane-down cache
	// keeps routing around a plane that failed an attempt before risking
	// a fresh probe — long enough that a steady message stream stops
	// paying the ack timeout per message, short enough that a healed
	// plane (a stall window ending, a stuck arbiter resetting) is picked
	// back up within a campaign.
	DefaultReprobeInterval = 200 * sim.Microsecond
	// DefaultPlaneDownCheck is the cached-fast-path cost: the driver
	// consulting its own plane-down state (a handful of loads and a
	// branch, no uncached I/O) before skipping straight to the other
	// plane.
	DefaultPlaneDownCheck = 50 * sim.Nanosecond
	// DefaultMaxAttempts bounds the real send attempts per message.
	// Soft failures (setup timeout, NACK) are ambiguous between a dead
	// plane and pathological congestion, so the driver re-cycles the
	// planes a few times before declaring the message lost; hard
	// evidence (a severed wire) rules a plane out immediately.
	DefaultMaxAttempts = 6
	// DefaultCRCRetries is the same-plane re-send budget on a CRC NACK.
	// A NACK is proof the plane carried the frame end to end — the
	// circuit formed and the body arrived, merely damaged — so one
	// re-send on the same plane is cheaper than charging the failover
	// path and poisoning the plane-down cache for a transient bit error.
	DefaultCRCRetries = 1
)

// FailoverConfig calibrates the driver-level reliability protocol.
type FailoverConfig struct {
	// SetupTimeout bounds the wait at any single busy resource before
	// the plane is declared down (catches stuck-busy crossbar outputs
	// and wedged send FIFOs).
	SetupTimeout sim.Time
	// AckTimeout is how long the sender waits for the delivery
	// acknowledgment before assuming the plane swallowed the message.
	AckTimeout sim.Time
	// NackLatency is the return time of a receiver's CRC-fail NACK.
	NackLatency sim.Time
	// RetryBackoff is the pause between detection and the retry.
	RetryBackoff sim.Time
	// ReprobeInterval is how long a Transport's plane-down cache routes
	// around a failed plane before the next real probe. Zero disables
	// the cache (every send pays the full detection window again).
	ReprobeInterval sim.Time
	// PlaneDownCheck is the per-message cost of consulting the plane-
	// down cache and skipping a known-dead plane.
	PlaneDownCheck sim.Time
	// MaxAttempts bounds real attempts per message across all planes;
	// zero means one attempt per wired plane (no soft-failure retries).
	// Planes with hard evidence of death (severed wire) are never
	// retried within a send.
	MaxAttempts int
	// CRCRetries is the per-message budget of same-plane re-sends on a
	// corrupt verdict before the driver charges the failover path. Zero
	// disables the retry (every NACK fails over immediately — the
	// pre-retry behaviour). Retries count against MaxAttempts.
	CRCRetries int
}

// DefaultFailover returns the calibrated protocol constants.
func DefaultFailover() FailoverConfig {
	return FailoverConfig{
		SetupTimeout:    DefaultSetupTimeout,
		AckTimeout:      DefaultAckTimeout,
		NackLatency:     DefaultNackLatency,
		RetryBackoff:    DefaultRetryBackoff,
		ReprobeInterval: DefaultReprobeInterval,
		PlaneDownCheck:  DefaultPlaneDownCheck,
		MaxAttempts:     DefaultMaxAttempts,
		CRCRetries:      DefaultCRCRetries,
	}
}

// PlaneCounters accumulates one network plane's degraded-mode statistics
// across reliable sends.
type PlaneCounters struct {
	// Attempts counts sends attempted on this plane.
	Attempts int64
	// Delivered counts messages that arrived intact via this plane.
	Delivered int64
	// Stalled counts attempts whose entry was deferred by an NI stall.
	Stalled int64
	// LinkDown counts attempts aborted by a severed wire.
	LinkDown int64
	// SetupTimeouts counts attempts aborted waiting on a busy resource
	// (stuck-busy output, wedged FIFO, or pathological congestion).
	SetupTimeouts int64
	// CRCErrors counts attempts delivered corrupt and NACKed.
	CRCErrors int64
	// CRCRetries counts NACKed attempts re-sent on the same plane under
	// the CRCRetries budget instead of failing over.
	CRCRetries int64
	// FailedOver counts attempts abandoned to the other plane.
	FailedOver int64
	// SkippedDown counts sends that skipped this plane on a plane-down
	// cache hit, paying only the cached status check instead of the full
	// detection window.
	SkippedDown int64
	// OSMessages counts background OS-stream messages injected on this
	// plane (osstream.go; only plane B carries the stream).
	OSMessages int64
	// OSDropped counts OS-stream messages the plane failed to carry
	// (severed wire, unrouted pair).
	OSDropped int64
}

// lost counts an attempt abandoned on a silent failure: a severed wire,
// or a setup timeout (a busy resource or a wedged send FIFO).
func (c *PlaneCounters) lost(cut bool) {
	if cut {
		c.LinkDown++
	} else {
		c.SetupTimeouts++
	}
	c.FailedOver++
}

// PlaneCounterSet renders plane p's counters as an ordered
// stats.CounterSet — the degraded-mode report of cmd/pmfault.
func (n *Network) PlaneCounterSet(p int) stats.CounterSet { return n.planes[p].counterSet(p) }

// counterSet renders plane p's counters c in report order.
func (c PlaneCounters) counterSet(p int) stats.CounterSet {
	set := stats.CounterSet{Title: fmt.Sprintf("plane %s", planeName(p))}
	set.Add("attempts", c.Attempts)
	set.Add("delivered", c.Delivered)
	set.Add("stalled", c.Stalled)
	set.Add("link-down", c.LinkDown)
	set.Add("setup-timeouts", c.SetupTimeouts)
	set.Add("crc-errors", c.CRCErrors)
	set.Add("crc-retries", c.CRCRetries)
	set.Add("failed-over", c.FailedOver)
	set.Add("skipped-down", c.SkippedDown)
	set.Add("os-messages", c.OSMessages)
	set.Add("os-dropped", c.OSDropped)
	return set
}

// Plane returns plane p's raw counters.
func (n *Network) Plane(p int) PlaneCounters { return n.planes[p] }

func planeName(p int) string {
	if p == topo.NetworkA {
		return "A"
	}
	return "B"
}

// Decomp splits a send's sender-observed latency into the four places
// the time can go, the per-message decomposition the telemetry layer
// aggregates per tenant (DESIGN.md §11):
//
//   - Arb: contention — send-FIFO drain at the source NI, busy wires,
//     crossbar output arbitration — on the attempt that delivered. The
//     residual of the attempt's span over its ideal transit, so every
//     wait the wormhole walk absorbed lands here.
//   - Wire: the zero-contention transit of the delivering attempt —
//     propagation, route setup and body streaming on an idle path. A
//     pure function of the route and payload.
//   - Detect: time spent learning that attempts failed — ack-timeout
//     windows, NACK returns, FIFO-stall abandons, and the cached
//     plane-down status checks (a failed CRC attempt's whole window,
//     its wire time included, is detection: the transfer bought no
//     progress, only the NACK's evidence).
//   - Retry: the driver's backoff pauses between a detection and the
//     re-post on the next plane.
//
// The components are exact, not sampled: for every delivered message
// Arb + Wire + Detect + Retry == Latency(), and for a failed one
// Detect + Retry == Latency() with Arb and Wire zero (the message
// never completed a transit). Unit-tested in decomp_test.go.
type Decomp struct {
	Arb, Wire, Detect, Retry sim.Time
}

// Delivery describes the outcome of one reliable send.
type Delivery struct {
	// Transit is the successful attempt's timing (zero if Failed).
	Transit Transit
	// Plane is the plane that delivered the message.
	Plane int
	// Attempts counts real send attempts (1 = delivered first try; more
	// means failovers and soft-failure retries preceded it).
	Attempts int
	// SkippedDown counts planes skipped on a plane-down cache hit before
	// this delivery.
	SkippedDown int
	// Retried marks a delivery that did not land on the first-choice
	// plane — either a real failed attempt preceded it or the plane-down
	// cache skipped plane A outright.
	Retried bool
	// Failed marks a message both planes failed to carry.
	Failed bool
	// PayloadBytes is the message's payload length as requested — echoed
	// on every outcome so open-loop senders with many messages in flight
	// can account delivered bytes from the callback alone.
	PayloadBytes int
	// Sent is the requested entry time; Done is delivery (intact
	// LastByte) or, for failed messages, when the sender gave up.
	Sent, Done sim.Time
	// Decomp splits Latency() exactly into arbitration, wire, detection
	// and retry time (see Decomp).
	Decomp Decomp
}

// Latency is the end-to-end time the sender observed, including every
// detection window, backoff and retry.
func (d Delivery) Latency() sim.Time { return d.Done - d.Sent }
