// Package mem models the node main memory: interleaved, pipelined DRAM
// built from standard modules, as in the PowerMANNA node (Section 2 of the
// paper: "The interleaved and pipelined node memory of up to 1 Gbyte uses
// cheap standard DRAM modules and provides an access bandwidth of
// 640 Mbyte/s").
//
// The model is occupancy-based: each bank is a pipelined resource with an
// initiation interval (the bank cycle time) and an access latency, and all
// banks share one datapath resource whose per-line occupancy sets the
// stream bandwidth ceiling. Interleaving spreads consecutive lines across
// banks so that sequential streams pipeline across banks while
// pathological strides collapse onto a single bank — exactly the behaviour
// that separates the two MatMult variants in Figure 7.
package mem

import (
	"fmt"

	"powermanna/internal/sim"
)

// Config describes one memory system.
type Config struct {
	// Banks is the number of interleaved DRAM banks.
	Banks int
	// InterleaveBytes is the stripe width: consecutive stripes of this many
	// bytes map to consecutive banks. Typically the cache-line size.
	InterleaveBytes int
	// AccessLatency is the time from row access start to first data.
	AccessLatency sim.Time
	// BankBusy is the bank initiation interval (cycle time): how long a
	// bank stays busy per line access.
	BankBusy sim.Time
	// LineTransfer is the datapath occupancy to move one cache line
	// between memory and the node interconnect. 64 B at 640 MB/s = 100 ns.
	LineTransfer sim.Time
	// SizeBytes is the installed capacity (informational; the timing model
	// does not bound addresses).
	SizeBytes int64
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.Banks <= 0:
		return fmt.Errorf("mem: Banks = %d, must be positive", c.Banks)
	case c.InterleaveBytes <= 0:
		return fmt.Errorf("mem: InterleaveBytes = %d, must be positive", c.InterleaveBytes)
	case c.AccessLatency < 0 || c.BankBusy < 0 || c.LineTransfer < 0:
		return fmt.Errorf("mem: negative timing parameter")
	}
	return nil
}

// Memory is the timing model instance.
type Memory struct {
	cfg      Config
	banks    []sim.Pipelined
	datapath sim.Resource
	// datapathBusy sums the datapath occupancy for Stats.
	datapathBusy sim.Time
	reads        int64
	writes       int64
}

// New builds a Memory from cfg. It panics on invalid configuration, which
// is always a programming error in a machine description.
func New(cfg Config) *Memory {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Memory{cfg: cfg, banks: make([]sim.Pipelined, cfg.Banks)}
	for i := range m.banks {
		m.banks[i] = sim.Pipelined{Interval: cfg.BankBusy, Latency: cfg.AccessLatency}
	}
	return m
}

func (m *Memory) bank(addr uint64) *sim.Pipelined {
	stripe := addr / uint64(m.cfg.InterleaveBytes)
	return &m.banks[stripe%uint64(m.cfg.Banks)]
}

// ReadLine models fetching the cache line containing addr, starting no
// earlier than at, and returns the completion time (data delivered to the
// requester's side of the datapath).
func (m *Memory) ReadLine(at sim.Time, addr uint64) (done sim.Time) {
	m.reads++
	bankDone := m.bank(addr).Acquire(at)
	// The datapath streams the line out after the bank produced it.
	start := m.datapath.Acquire(bankDone, m.cfg.LineTransfer)
	m.datapathBusy += m.cfg.LineTransfer
	return start + m.cfg.LineTransfer
}

// WriteLine models a write-back of a full line. Writes occupy the bank and
// datapath but the requester does not wait for the row completion, so the
// returned time is when the datapath accepted the line.
func (m *Memory) WriteLine(at sim.Time, addr uint64) (accepted sim.Time) {
	m.writes++
	start := m.datapath.Acquire(at, m.cfg.LineTransfer)
	m.datapathBusy += m.cfg.LineTransfer
	m.bank(addr).Acquire(start + m.cfg.LineTransfer)
	return start + m.cfg.LineTransfer
}

// Stats reports access counts and datapath busy time.
type Stats struct {
	Reads, Writes int64
	DatapathBusy  sim.Time
}

// Stats returns the accumulated counters.
func (m *Memory) Stats() Stats {
	return Stats{Reads: m.reads, Writes: m.writes, DatapathBusy: m.datapathBusy}
}

// Reset clears all timelines and counters, keeping the configuration.
func (m *Memory) Reset() {
	for i := range m.banks {
		m.banks[i].Reset()
	}
	m.datapath.Reset()
	m.datapathBusy, m.reads, m.writes = 0, 0, 0
}
