// Package dispatch is a cycle-stepped reference model of the PowerMANNA
// dispatcher — the central control unit of Figures 2 and 3 that "handles
// the protocol and control complexity of the MPC620 processors" and is
// "the subject of a patent application". It implements the MPC620 bus
// protocol features the paper enumerates in Section 2:
//
//   - pipelined, split address and data tenures,
//   - tagged, out-of-order data-transfer completion,
//   - a bounded number of outstanding transactions per master,
//   - sequentialized address/snoop phases (the snoop protocol's
//     requirement, and the node's eventual scaling limit),
//   - queued outstanding snoop requests,
//   - intervention: a cache owning a line Modified supplies the data
//     (cache-to-cache) instead of memory.
//
// The node-level timing models in internal/bus use an analytic
// abstraction of the same machine (busy timelines); this package is the
// detailed protocol engine the abstraction is cross-validated against in
// the tests, and the substrate for the dispatcher ablations (pipelining
// depth, in-order versus out-of-order completion).
package dispatch

import (
	"fmt"

	"powermanna/internal/metrics"
	"powermanna/internal/sim"
	"powermanna/internal/trace"
)

// Metric names PublishMetrics feeds; pmfault --metrics dumps them.
const (
	// MetricAddrOccupancyBP is the serialized address/snoop path's tenure
	// occupancy in basis points (10000 = the path never idle): the
	// dispatcher's scaling limit from Section 2, as a gauge.
	MetricAddrOccupancyBP = "dispatch.addr-tenure.occupancy-bp"
	// MetricDataOccupancyBP is the mean per-master data-path tenure
	// occupancy in basis points (the ADSP switch gives each master its
	// own point-to-point data path).
	MetricDataOccupancyBP = "dispatch.data-tenure.occupancy-bp"
	// MetricCompleted counts transactions the dispatcher completed.
	MetricCompleted = "dispatch.txns.completed"
)

// Kind is a bus transaction type.
type Kind uint8

// Transaction kinds of the MPC620 bus protocol subset the node uses.
const (
	Read      Kind = iota // coherent read (BusRd)
	ReadExcl              // read with intent to modify (BusRdX)
	Upgrade               // invalidating address-only transaction
	Writeback             // dirty-line castout
)

// String names the dispatcher transaction kind.
func (k Kind) String() string {
	switch k {
	case Read:
		return "Read"
	case ReadExcl:
		return "ReadExcl"
	case Upgrade:
		return "Upgrade"
	case Writeback:
		return "Writeback"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// addressOnly reports whether the kind has no data tenure.
func (k Kind) addressOnly() bool { return k == Upgrade }

// Config describes the dispatcher build.
type Config struct {
	// Masters is the number of bus masters (CPUs, NI).
	Masters int
	// MaxOutstanding is the per-master transaction pipeline depth the
	// dispatcher tracks (tagged transactions in flight).
	MaxOutstanding int
	// AddressCycles is the length of one address/snoop tenure.
	AddressCycles int
	// SnoopLagCycles is the gap between the address tenure and the
	// snoop response (queued snoops may overlap following tenures).
	SnoopLagCycles int
	// MemoryCycles is the bus-cycle count from snoop response to memory
	// data being ready.
	MemoryCycles int
	// InterventionCycles is the same for a cache-to-cache supply.
	InterventionCycles int
	// DataCycles is the data tenure length (line beats).
	DataCycles int
	// InOrderData forces each master's data tenures to complete in the
	// order its transactions were issued (the ablation's baseline; the
	// MPC620 supports out-of-order completion via tags).
	InOrderData bool
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.Masters <= 0:
		return fmt.Errorf("dispatch: Masters = %d", c.Masters)
	case c.MaxOutstanding <= 0:
		return fmt.Errorf("dispatch: MaxOutstanding = %d", c.MaxOutstanding)
	case c.AddressCycles <= 0 || c.DataCycles <= 0:
		return fmt.Errorf("dispatch: tenure lengths must be positive")
	case c.SnoopLagCycles < 0 || c.MemoryCycles < 0 || c.InterventionCycles < 0:
		return fmt.Errorf("dispatch: negative latencies")
	}
	return nil
}

// DefaultConfig returns the PowerMANNA node's dispatcher parameters at
// the 60 MHz bus clock.
func DefaultConfig() Config {
	return Config{
		Masters:            2,
		MaxOutstanding:     4, // calibrated: MPC620 pipelined bus depth
		AddressCycles:      2,
		SnoopLagCycles:     2,
		MemoryCycles:       14, // ≈ 230 ns at 60 MHz
		InterventionCycles: 4,
		DataCycles:         4, // 64-byte line over the 128-bit path
		InOrderData:        false,
	}
}

// phase of a transaction's lifetime.
type phase uint8

const (
	phaseQueued phase = iota
	phaseAddress
	phaseSnoopWait
	phaseDataWait
	phaseData
	phaseDone
)

// Txn is one tagged bus transaction.
type Txn struct {
	Tag      int
	Master   int
	Kind     Kind
	LineAddr uint64
	// Intervention marks that a peer cache owns the line Modified and
	// will supply the data (set by the snoop callback).
	Intervention bool

	phase     phaseState
	dataReady int64
	done      int64 // cycle the transaction completed
}

type phaseState struct {
	p     phase
	until int64
}

// SnoopFunc lets the environment answer the snoop for a transaction:
// it returns whether a peer cache will intervene (supply Modified data).
type SnoopFunc func(t *Txn) bool

// Dispatcher is the cycle-stepped engine.
type Dispatcher struct {
	cfg   Config
	snoop SnoopFunc

	cycle    int64
	nextTag  int
	inflight []*Txn
	queued   [][]*Txn // per master, waiting for a pipeline slot

	addrBusyUntil int64 // serialized address/snoop tenures
	memBusyUntil  int64 // memory datapath occupancy
	// data paths are point-to-point per master (the ADSP switch), so
	// each master has its own data-tenure timeline.
	dataBusyUntil []int64

	stats Stats

	// rec, when non-nil, records address and data tenures as trace spans;
	// cyclePeriod converts bus cycles to simulated time for the recorder.
	rec         *trace.Recorder
	cyclePeriod sim.Time
}

// Stats counts protocol activity.
type Stats struct {
	Issued, Completed   int64
	AddressTenures      int64
	DataTenures         int64
	Interventions       int64
	OutOfOrderReturns   int64
	MaxObservedInflight int
}

// New builds a dispatcher. snoop may be nil (no intervention).
func New(cfg Config, snoop SnoopFunc) *Dispatcher {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if snoop == nil {
		snoop = func(*Txn) bool { return false }
	}
	return &Dispatcher{
		cfg:           cfg,
		snoop:         snoop,
		queued:        make([][]*Txn, cfg.Masters),
		dataBusyUntil: make([]int64, cfg.Masters),
	}
}

// Trace attaches a recorder; cyclePeriod is the bus-cycle length used to
// place tenures on the simulated timeline (e.g. the 60 MHz bus clock's
// period). A nil recorder detaches.
func (d *Dispatcher) Trace(rec *trace.Recorder, cyclePeriod sim.Time) {
	d.rec, d.cyclePeriod = rec, cyclePeriod
}

// traceSpan records a tenure span on a dispatcher track, converting
// cycles to simulated time.
func (d *Dispatcher) traceSpan(unit int, name string, from, until int64) {
	if !d.rec.Enabled() || d.cyclePeriod <= 0 {
		return
	}
	d.rec.Span(trace.DispatchTrack(unit), "dispatch", name,
		sim.Time(from)*d.cyclePeriod, sim.Time(until)*d.cyclePeriod)
}

// Stats returns accumulated counters.
func (d *Dispatcher) Stats() Stats { return d.stats }

// PublishMetrics writes the dispatcher's tenure-occupancy gauges and
// completion counter into the registry: address-path occupancy (the
// sequentialized snoop path that bounds node scaling) and mean data-path
// occupancy across the masters' point-to-point paths, both in basis
// points of the elapsed cycles. No-op on a nil registry or before the
// first cycle.
func (d *Dispatcher) PublishMetrics(m *metrics.Registry) {
	if m == nil || d.cycle == 0 {
		return
	}
	const basisPoints = 10000
	addr := d.stats.AddressTenures * int64(d.cfg.AddressCycles) * basisPoints / d.cycle
	data := d.stats.DataTenures * int64(d.cfg.DataCycles) * basisPoints / (d.cycle * int64(d.cfg.Masters))
	m.Gauge(MetricAddrOccupancyBP).Set(addr)
	m.Gauge(MetricDataOccupancyBP).Set(data)
	m.Counter(MetricCompleted).Add(d.stats.Completed)
}

// Submit presents a transaction from a master. It is queued until the
// master has a free pipeline slot. Returns the transaction handle.
func (d *Dispatcher) Submit(master int, kind Kind, lineAddr uint64) *Txn {
	if master < 0 || master >= d.cfg.Masters {
		panic(fmt.Sprintf("dispatch: master %d out of range", master))
	}
	d.nextTag++
	t := &Txn{Tag: d.nextTag, Master: master, Kind: kind, LineAddr: lineAddr}
	t.phase.p = phaseQueued
	d.queued[master] = append(d.queued[master], t)
	d.stats.Issued++
	return t
}

// inflightOf counts a master's transactions holding pipeline slots.
func (d *Dispatcher) inflightOf(master int) int {
	n := 0
	for _, t := range d.inflight {
		if t.Master == master {
			n++
		}
	}
	return n
}

// Step advances one bus cycle, moving every transaction through its
// phases. Deterministic: masters are scanned round-robin starting from
// (cycle mod Masters) for address arbitration fairness.
func (d *Dispatcher) Step() {
	c := d.cycle

	// 1. Promote queued transactions into free pipeline slots.
	for m := 0; m < d.cfg.Masters; m++ {
		for len(d.queued[m]) > 0 && d.inflightOf(m) < d.cfg.MaxOutstanding {
			t := d.queued[m][0]
			d.queued[m] = d.queued[m][1:]
			t.phase = phaseState{p: phaseAddress}
			d.inflight = append(d.inflight, t)
		}
	}
	if n := len(d.inflight); n > d.stats.MaxObservedInflight {
		d.stats.MaxObservedInflight = n
	}

	// 2. Address arbitration: one tenure on the serialized address path.
	if c >= d.addrBusyUntil {
		if t := d.pickAddressCandidate(c); t != nil {
			d.addrBusyUntil = c + int64(d.cfg.AddressCycles)
			t.phase = phaseState{p: phaseSnoopWait, until: d.addrBusyUntil + int64(d.cfg.SnoopLagCycles)}
			d.stats.AddressTenures++
			d.traceSpan(0, "addr "+t.Kind.String(), c, d.addrBusyUntil)
		}
	}

	// 3. Snoop responses and data scheduling.
	for _, t := range d.inflight {
		switch t.phase.p {
		case phaseSnoopWait:
			if c < t.phase.until {
				continue
			}
			t.Intervention = d.snoop(t)
			if t.Intervention {
				d.stats.Interventions++
				if d.rec.Enabled() && d.cyclePeriod > 0 {
					d.rec.Instant(trace.DispatchTrack(0), "dispatch", "intervention", sim.Time(c)*d.cyclePeriod)
				}
			}
			if t.Kind.addressOnly() {
				t.phase = phaseState{p: phaseDone}
				t.done = c
				d.stats.Completed++
				continue
			}
			lat := int64(d.cfg.MemoryCycles)
			if t.Intervention {
				lat = int64(d.cfg.InterventionCycles)
			}
			if t.Kind == Writeback {
				// Castout data is ready immediately; memory absorbs it.
				lat = 0
			}
			if t.Kind == Read || t.Kind == ReadExcl {
				if !t.Intervention {
					// Memory service occupies the memory datapath.
					start := max64(c, d.memBusyUntil)
					d.memBusyUntil = start + int64(d.cfg.DataCycles)
					t.dataReady = start + lat
				} else {
					t.dataReady = c + lat
				}
			} else {
				t.dataReady = c + lat
			}
			t.phase = phaseState{p: phaseDataWait}

		case phaseDataWait:
			if c < t.dataReady {
				continue
			}
			if d.cfg.InOrderData && d.hasOlderIncomplete(t) {
				continue // the ablation baseline: no tagged reordering
			}
			// Data tenure on the master's point-to-point path.
			if c < d.dataBusyUntil[t.Master] {
				continue
			}
			d.dataBusyUntil[t.Master] = c + int64(d.cfg.DataCycles)
			t.phase = phaseState{p: phaseData, until: d.dataBusyUntil[t.Master]}
			d.stats.DataTenures++
			d.traceSpan(1+t.Master, "data "+t.Kind.String(), c, d.dataBusyUntil[t.Master])

		case phaseData:
			if c < t.phase.until {
				continue
			}
			t.phase = phaseState{p: phaseDone}
			t.done = c
			d.stats.Completed++
			if d.completedOutOfOrder(t) {
				d.stats.OutOfOrderReturns++
			}
		}
	}

	// 4. Retire done transactions from the pipeline.
	keep := d.inflight[:0]
	for _, t := range d.inflight {
		if t.phase.p != phaseDone {
			keep = append(keep, t)
		}
	}
	d.inflight = keep

	d.cycle++
}

// pickAddressCandidate selects the next transaction needing an address
// tenure, round-robin over masters for fairness.
func (d *Dispatcher) pickAddressCandidate(c int64) *Txn {
	for off := 0; off < d.cfg.Masters; off++ {
		m := (int(c) + off) % d.cfg.Masters
		for _, t := range d.inflight {
			if t.Master == m && t.phase.p == phaseAddress {
				return t
			}
		}
	}
	return nil
}

// hasOlderIncomplete reports whether the master has an older transaction
// that has not completed (for the in-order ablation).
func (d *Dispatcher) hasOlderIncomplete(t *Txn) bool {
	for _, o := range d.inflight {
		if o.Master == t.Master && o.Tag < t.Tag && o.phase.p != phaseDone {
			return true
		}
	}
	return false
}

// completedOutOfOrder reports whether any older same-master transaction
// is still incomplete at t's completion.
func (d *Dispatcher) completedOutOfOrder(t *Txn) bool {
	for _, o := range d.inflight {
		if o.Master == t.Master && o.Tag < t.Tag && o.phase.p != phaseDone {
			return true
		}
	}
	return false
}

// RunUntilIdle steps until every submitted transaction completed or the
// cycle budget is exhausted; it returns the final cycle and whether the
// engine drained.
func (d *Dispatcher) RunUntilIdle(maxCycles int64) (int64, bool) {
	for i := int64(0); i < maxCycles; i++ {
		if d.idle() {
			return d.cycle, true
		}
		d.Step()
	}
	return d.cycle, d.idle()
}

func (d *Dispatcher) idle() bool {
	if len(d.inflight) > 0 {
		return false
	}
	for _, q := range d.queued {
		if len(q) > 0 {
			return false
		}
	}
	return true
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
