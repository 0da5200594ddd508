// Package bus models the node-level interconnect between processors,
// memory and the network interface.
//
// Two fabrics are provided:
//
//   - SharedBus: the classic SMP processor/memory bus of the comparison
//     machines (SUN Ultra-I, Pentium II). One set of wires carries address
//     and data phases for all devices; every transaction occupies it.
//
//   - SwitchedFabric: the PowerMANNA node's ADSP multi-master bus switch
//     driven by the central dispatcher (Section 2, Figures 2–3 of the
//     paper). Instead of a shared bus, devices get point-to-point
//     connections through a three-way 36-bit-sliced switch, so concurrent
//     data transfers proceed independently; only the address/snoop phase
//     is serialized, because the MPC620 snoop protocol requires the
//     address phases of the processors to be sequentialized.
//
// Both fabrics model split transactions (the MPC620 bus, SUN's UPA and the
// Pentium II's P6 bus all decouple the address phase from the data phase),
// so the modelled differences are exactly the architectural ones the paper
// argues about: data-path sharing, bus clock, datapath width, and the
// serialized snoop phase.
package bus

import (
	"fmt"

	"powermanna/internal/mem"
	"powermanna/internal/sim"
)

// Source says where a line fill comes from.
type Source uint8

const (
	// FromMemory: the line is read from node DRAM.
	FromMemory Source = iota
	// FromPeer: a peer cache held the line Modified and supplies it
	// directly (cache-to-cache transfer).
	FromPeer
)

// String names the transfer source for traces and tables.
func (s Source) String() string {
	if s == FromMemory {
		return "memory"
	}
	return "peer"
}

// Config describes a fabric.
type Config struct {
	// Name labels the fabric in stats output.
	Name string
	// Clock is the bus/board clock domain (60 MHz for PowerMANNA and the
	// 180 MHz PC configuration, 66 for the 266 MHz PC, 84 for the SUN).
	Clock sim.Clock
	// AddressCycles is the occupancy of one address/snoop phase in bus
	// cycles. Serialized across all devices on both fabrics.
	AddressCycles int
	// DataBeatBytes is the datapath width moved per bus cycle (8 for the
	// 64-bit P6 bus, 16 for the 128-bit UPA and the PowerMANNA node).
	DataBeatBytes int
	// LineBytes is the coherence-line length moved per data phase.
	LineBytes int
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.Clock.Period <= 0:
		return fmt.Errorf("bus %q: zero clock", c.Name)
	case c.AddressCycles <= 0:
		return fmt.Errorf("bus %q: AddressCycles = %d", c.Name, c.AddressCycles)
	case c.DataBeatBytes <= 0:
		return fmt.Errorf("bus %q: DataBeatBytes = %d", c.Name, c.DataBeatBytes)
	case c.LineBytes <= 0:
		return fmt.Errorf("bus %q: LineBytes = %d", c.Name, c.LineBytes)
	}
	return nil
}

// addressTime is the duration of one address/snoop phase.
func (c Config) addressTime() sim.Time {
	return c.Clock.Cycles(int64(c.AddressCycles))
}

// lineTime is the duration of moving one full line over the datapath.
func (c Config) lineTime() sim.Time {
	beats := (c.LineBytes + c.DataBeatBytes - 1) / c.DataBeatBytes
	return c.Clock.Cycles(int64(beats))
}

// Stats counts fabric activity.
type Stats struct {
	AddressPhases int64
	AddressWait   sim.Time // total queuing on the serialized address phase
	DataPhases    int64
	DataWait      sim.Time // total queuing on shared data resources
	LinesMoved    int64
}

// Fabric is the timing interface the node model drives. A coherent miss is
// served in two steps so the node can apply snoop state changes at the
// grant instant:
//
//	grant := f.GrantAddress(at)        // serialized address/snoop phase
//	...snoop peer caches at grant...
//	done := f.FillLine(grant, la, src) // data phase
type Fabric interface {
	// GrantAddress wins the serialized address/snoop phase; the returned
	// grant time is when the phase completed.
	GrantAddress(at sim.Time) sim.Time
	// FillLine moves one line to the requester, from memory or a peer
	// cache, starting no earlier than at. Returns data-arrival time.
	FillLine(at sim.Time, lineAddr uint64, src Source) sim.Time
	// WritebackLine posts a dirty line to memory (including its own
	// address phase). Returns when the line has been accepted.
	WritebackLine(at sim.Time, lineAddr uint64) sim.Time
	// Upgrade performs an address-only invalidating transaction (write hit
	// on a Shared line). Returns when ownership is granted.
	Upgrade(at sim.Time) sim.Time
	// Config returns the fabric configuration.
	Config() Config
	// Stats returns accumulated counters.
	Stats() Stats
	// Reset clears timelines and counters.
	Reset()
}

// SharedBus is the baseline SMP organization of the comparison machines:
// one address bus and one data bus shared by every device. The two wire
// groups are physically separate on both the P6 bus and SUN's UPA, so
// address and data phases of different transactions overlap, but all
// devices still arbitrate for each group.
type SharedBus struct {
	cfg   Config
	mem   *mem.Memory
	addr  sim.Resource // shared address/snoop wires
	data  sim.Resource // shared data wires
	stats Stats
}

// NewShared builds a shared-bus fabric over m. Panics on invalid config.
func NewShared(cfg Config, m *mem.Memory) *SharedBus {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &SharedBus{cfg: cfg, mem: m}
}

// GrantAddress implements Fabric.
func (b *SharedBus) GrantAddress(at sim.Time) sim.Time {
	b.stats.AddressPhases++
	start := b.addr.Acquire(at, b.cfg.addressTime())
	b.stats.AddressWait += start - at
	return start + b.cfg.addressTime()
}

// FillLine implements Fabric. With split transactions the bus is free
// while memory works; the data phase re-arbitrates for the wires.
func (b *SharedBus) FillLine(at sim.Time, lineAddr uint64, src Source) sim.Time {
	ready := at
	if src == FromMemory {
		ready = b.mem.ReadLine(at, lineAddr*uint64(b.cfg.LineBytes))
	}
	dur := b.cfg.lineTime()
	start := b.data.Acquire(ready, dur)
	b.stats.DataPhases++
	b.stats.DataWait += start - ready
	b.stats.LinesMoved++
	return start + dur
}

// WritebackLine implements Fabric.
func (b *SharedBus) WritebackLine(at sim.Time, lineAddr uint64) sim.Time {
	grant := b.GrantAddress(at)
	dur := b.cfg.lineTime()
	start := b.data.Acquire(grant, dur)
	b.stats.DataPhases++
	b.stats.DataWait += start - grant
	b.stats.LinesMoved++
	done := start + dur
	b.mem.WriteLine(done, lineAddr*uint64(b.cfg.LineBytes))
	return done
}

// Upgrade implements Fabric.
func (b *SharedBus) Upgrade(at sim.Time) sim.Time { return b.GrantAddress(at) }

// Config implements Fabric.
func (b *SharedBus) Config() Config { return b.cfg }

// Stats implements Fabric.
func (b *SharedBus) Stats() Stats { return b.stats }

// Reset implements Fabric.
func (b *SharedBus) Reset() {
	b.addr.Reset()
	b.data.Reset()
	b.stats = Stats{}
}

// SwitchedFabric is the PowerMANNA node interconnect: the ADSP bus switch
// gives every device a private point-to-point data path, and the central
// dispatcher serializes only the address/snoop phases (the MPC620 snoop
// protocol's requirement). Data transfers from memory still share the
// memory's own datapath — that constraint lives in the mem model — but
// cache-to-cache transfers proceed without touching other devices'
// paths.
type SwitchedFabric struct {
	cfg   Config
	mem   *mem.Memory
	snoop sim.Resource // dispatcher-serialized address/snoop phases
	// snoopBusy sums the address phases for SnoopUtilization.
	snoopBusy sim.Time
	stats     Stats
}

// NewSwitched builds the switched fabric over m. Panics on invalid config.
func NewSwitched(cfg Config, m *mem.Memory) *SwitchedFabric {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &SwitchedFabric{cfg: cfg, mem: m}
}

// GrantAddress implements Fabric.
func (f *SwitchedFabric) GrantAddress(at sim.Time) sim.Time {
	f.stats.AddressPhases++
	start := f.snoop.Acquire(at, f.cfg.addressTime())
	f.snoopBusy += f.cfg.addressTime()
	f.stats.AddressWait += start - at
	return start + f.cfg.addressTime()
}

// FillLine implements Fabric. Memory fills ride the memory datapath (the
// only shared data resource); cache-to-cache fills cross the switch on a
// point-to-point path between the two processors' ports, contending with
// nothing else — the ADSP switch replaces the shared data bus with
// "multiple point-to-point connections" (Section 1).
func (f *SwitchedFabric) FillLine(at sim.Time, lineAddr uint64, src Source) sim.Time {
	f.stats.DataPhases++
	f.stats.LinesMoved++
	if src == FromMemory {
		return f.mem.ReadLine(at, lineAddr*uint64(f.cfg.LineBytes))
	}
	return at + f.cfg.lineTime()
}

// WritebackLine implements Fabric. The victim's address phase is snooped
// like any other transaction; the data rides straight into memory.
func (f *SwitchedFabric) WritebackLine(at sim.Time, lineAddr uint64) sim.Time {
	grant := f.GrantAddress(at)
	f.stats.DataPhases++
	f.stats.LinesMoved++
	return f.mem.WriteLine(grant, lineAddr*uint64(f.cfg.LineBytes))
}

// Upgrade implements Fabric.
func (f *SwitchedFabric) Upgrade(at sim.Time) sim.Time { return f.GrantAddress(at) }

// Config implements Fabric.
func (f *SwitchedFabric) Config() Config { return f.cfg }

// Stats implements Fabric.
func (f *SwitchedFabric) Stats() Stats { return f.stats }

// Reset implements Fabric.
func (f *SwitchedFabric) Reset() {
	f.snoop.Reset()
	f.snoopBusy = 0
	f.stats = Stats{}
}

// SnoopUtilization reports the dispatcher address-phase busy fraction —
// the quantity the paper identifies as the node's scaling limit. A
// window of zero yields zero.
func (f *SwitchedFabric) SnoopUtilization(window sim.Time) float64 {
	if window <= 0 {
		return 0
	}
	return float64(f.snoopBusy) / float64(window)
}

var (
	_ Fabric = (*SharedBus)(nil)
	_ Fabric = (*SwitchedFabric)(nil)
)
