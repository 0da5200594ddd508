package comm

import (
	"powermanna/internal/link"
	"powermanna/internal/netsim"
	"powermanna/internal/ni"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
)

// PMParams are the PowerMANNA driver and interface parameters. Hardware
// geometry comes from the paper; the software costs are calibrated,
// anchored on the paper's measured 2.75 µs one-way latency for 8 bytes
// and the Figure 12 bidirectional shortfall it attributes to the
// four-line FIFOs.
type PMParams struct {
	// CPUClock is the driving processor's clock (the MPC620 at 180 MHz).
	CPUClock sim.Clock
	// SendSetupCycles is the user-level send path before the first FIFO
	// word: argument checks, route lookup, header compose. Calibrated.
	SendSetupCycles int64
	// RecvReturnCycles is the receive path after the last FIFO word:
	// CRC status check, length handling, return to user. Calibrated.
	RecvReturnCycles int64
	// PollCycles is one status-register poll (an uncached load's round
	// trip through the switch to the link interface). Calibrated.
	PollCycles int64
	// GapSendCycles is the per-message sender work at saturation (no
	// blocking receive path in the loop). Calibrated.
	GapSendCycles int64
	// GapRecvCycles is the per-message receiver work at saturation.
	GapRecvCycles int64
	// PIOWriteLine is the time to gather-write one 64-byte line into the
	// send FIFO through the node switch (burst store).
	PIOWriteLine sim.Time
	// PIOReadLine is the time to drain one 64-byte line from the receive
	// FIFO (burst load; slower than the write — loads are not pipelined).
	PIOReadLine sim.Time
	// DirectionSwitchCycles is the driver turnaround between filling the
	// send FIFO and draining the receive FIFO in bidirectional traffic:
	// synchronization barriers between cached and uncached accesses plus
	// the status read and loop turnaround. Calibrated to reproduce the
	// Figure 12 shortfall the paper attributes to the small FIFOs.
	DirectionSwitchCycles int64
	// FIFOBytes is the per-direction link-interface FIFO (4 cache lines).
	FIFOBytes int
	// Links is the number of link interfaces striped over (1 in the
	// paper's measurements; 2 for the dual-link ablation).
	Links int
}

// DefaultPMParams returns the calibrated PowerMANNA parameter set.
func DefaultPMParams() PMParams {
	return PMParams{
		CPUClock:              sim.ClockMHz(180),
		SendSetupCycles:       200, // calibrated → 1.11 µs
		RecvReturnCycles:      150, // calibrated → 0.83 µs
		PollCycles:            40,  // calibrated → 0.22 µs
		GapSendCycles:         80,
		GapRecvCycles:         60,
		PIOWriteLine:          100 * sim.Nanosecond,
		PIOReadLine:           150 * sim.Nanosecond,
		DirectionSwitchCycles: 380, // calibrated → 2.11 µs per turnaround
		FIFOBytes:             ni.FIFOBytes,
		Links:                 1,
	}
}

// PMSystem is the measured PowerMANNA pair: two nodes of a Figure 5a
// cluster communicating through one crossbar. Sends go through a
// fault-aware netsim.Transport, so the measured pair runs the same
// datapath the fault campaigns exercise; path is kept alongside for the
// wire-byte arithmetic of the gap model.
type PMSystem struct {
	params PMParams
	net    *netsim.Network
	tp     *netsim.Transport
	path   topo.Path
}

// NewPowerMANNA builds the measured configuration (nodes 0 and 1 of an
// eight-node cluster, network plane A preferred).
func NewPowerMANNA() *PMSystem { return NewPowerMANNAWith(DefaultPMParams()) }

// NewPowerMANNAWith builds a PowerMANNA pair with explicit parameters
// (used by the FIFO-size and dual-link ablations) and the default
// failover protocol.
func NewPowerMANNAWith(p PMParams) *PMSystem {
	if p.Links < 1 {
		p.Links = 1
	}
	net := netsim.New(topo.Cluster8())
	path, err := net.Topology().Route(0, 1, topo.NetworkA)
	if err != nil {
		panic(err)
	}
	return &PMSystem{params: p, net: net, tp: net.MustTransport(0, netsim.DefaultFailover()), path: path}
}

// Name implements System.
func (s *PMSystem) Name() string {
	if s.params.Links > 1 {
		return "PowerMANNA-dual"
	}
	return "PowerMANNA"
}

func (s *PMSystem) cycles(n int64) sim.Time { return s.params.CPUClock.Cycles(n) }

// lines reports the FIFO lines an n-byte transfer occupies.
func lines(n int) int { return (n + 63) / 64 }

// OneWayLatency implements System: send setup, first line into the FIFO,
// network transit (route setup + cut-through body), receiver poll
// residual, final line drain, receive-path return.
func (s *PMSystem) OneWayLatency(n int) sim.Time {
	s.net.Reset()
	t := s.cycles(s.params.SendSetupCycles)
	t += s.params.PIOWriteLine // first line enters the send FIFO
	d, err := s.tp.Send(t, 1, n)
	if err != nil || d.Failed {
		panic(err)
	}
	t = d.Done
	t += s.cycles(s.params.PollCycles) / 2 // average poll residual
	t += s.params.PIOReadLine              // drain the final line
	t += s.cycles(s.params.RecvReturnCycles)
	return t
}

// LatencyBreakdown decomposes the one-way latency of an n-byte message
// into its stages — the counterpart of the PCI-NIC budget in
// internal/nic, and the quantitative form of the paper's Section 3.3
// argument for the CPU-driven interface: no doorbell, no DMA setup, no
// embedded processor on the path.
func (s *PMSystem) LatencyBreakdown(n int) []Stage {
	s.net.Reset()
	var stages []Stage
	add := func(name string, t sim.Time) { stages = append(stages, Stage{name, t}) }
	t := s.cycles(s.params.SendSetupCycles)
	add("user-level send (PIO setup)", t)
	add("first line into send FIFO", s.params.PIOWriteLine)
	d, err := s.tp.Send(t+s.params.PIOWriteLine, 1, n)
	if err != nil || d.Failed {
		panic(err)
	}
	add("route setup + wire (cut-through)", d.Done-(t+s.params.PIOWriteLine))
	add("receiver poll residual", s.cycles(s.params.PollCycles)/2)
	add("drain final line", s.params.PIOReadLine)
	add("user-level receive return", s.cycles(s.params.RecvReturnCycles))
	return stages
}

// Stage is one leg of a latency budget.
type Stage struct {
	Name string
	Time sim.Time
}

// Gap implements System: the steady-state per-message time is the
// slowest pipeline stage — sender work, wire occupancy, or receiver
// work. Striped links divide the wire term.
func (s *PMSystem) Gap(n int) sim.Time {
	nLines := sim.Time(lines(n))
	sender := s.cycles(s.params.GapSendCycles) + nLines*s.params.PIOWriteLine
	wireBytes := ni.WireBytes(len(s.path.RouteBytes), n)
	wire := sim.Time(wireBytes) * link.BytePeriod / sim.Time(s.params.Links) // 60 MB/s per link
	recv := s.cycles(s.params.GapRecvCycles+s.params.PollCycles) + nLines*s.params.PIOReadLine
	return sim.Max(sender, sim.Max(wire, recv))
}

// UniBandwidth implements System: a one-directional message stream,
// simulated at FIFO granularity (fills, drains, polls, flow control).
func (s *PMSystem) UniBandwidth(n int) float64 {
	return runDriverSim(s.params, n, false)
}

// BiBandwidth implements System: both nodes stream simultaneously; the
// single driver thread on each node alternates between filling at most
// four lines of the send FIFO and draining the receive FIFO, paying the
// direction-switch cost each way (Section 5.2).
func (s *PMSystem) BiBandwidth(n int) float64 {
	return 2 * runDriverSim(s.params, n, true)
}

var _ System = (*PMSystem)(nil)
