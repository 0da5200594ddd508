package dispatch

import (
	"testing"
	"testing/quick"
)

// txnDone reports whether t completed, and at which cycle.
func txnDone(t *Txn) (bool, int64) { return t.phase.p == phaseDone, t.done }

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	bad := []Config{
		{},
		{Masters: 1},
		{Masters: 1, MaxOutstanding: 1},
		{Masters: 1, MaxOutstanding: 1, AddressCycles: 1, DataCycles: 1, MemoryCycles: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Read: "Read", ReadExcl: "ReadExcl", Upgrade: "Upgrade", Writeback: "Writeback"} {
		if k.String() != want {
			t.Errorf("%v", k)
		}
	}
}

func TestSingleReadLifecycle(t *testing.T) {
	d := New(DefaultConfig(), nil)
	txn := d.Submit(0, Read, 0x40)
	cycle, drained := d.RunUntilIdle(1000)
	if !drained {
		t.Fatal("engine did not drain")
	}
	done, at := txnDone(txn)
	if !done {
		t.Fatal("transaction incomplete")
	}
	// Address (2) + snoop lag (2) + memory (14) + data (4) ≈ 22 cycles.
	if at < 20 || at > 26 {
		t.Errorf("read completed at cycle %d, want ~22", at)
	}
	if cycle <= at {
		t.Errorf("idle cycle %d not past completion %d", cycle, at)
	}
	s := d.Stats()
	if s.Issued != 1 || s.Completed != 1 || s.AddressTenures != 1 || s.DataTenures != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestUpgradeIsAddressOnly(t *testing.T) {
	d := New(DefaultConfig(), nil)
	txn := d.Submit(0, Upgrade, 0x40)
	d.RunUntilIdle(100)
	done, at := txnDone(txn)
	if !done {
		t.Fatal("upgrade incomplete")
	}
	if at > 8 {
		t.Errorf("upgrade took %d cycles, want address+snoop only", at)
	}
	if d.Stats().DataTenures != 0 {
		t.Error("upgrade used a data tenure")
	}
}

func TestInterventionIsFasterThanMemory(t *testing.T) {
	run := func(intervene bool) int64 {
		d := New(DefaultConfig(), func(*Txn) bool { return intervene })
		txn := d.Submit(0, Read, 0x80)
		d.RunUntilIdle(1000)
		_, at := txnDone(txn)
		return at
	}
	mem, c2c := run(false), run(true)
	if c2c >= mem {
		t.Errorf("intervention (%d) not faster than memory (%d)", c2c, mem)
	}
	d := New(DefaultConfig(), func(*Txn) bool { return true })
	d.Submit(0, Read, 0)
	d.RunUntilIdle(1000)
	if d.Stats().Interventions != 1 {
		t.Error("intervention not counted")
	}
}

// The serialized address path: two masters submitting together see their
// address tenures strictly ordered, never overlapping.
func TestAddressTenuresSerialized(t *testing.T) {
	d := New(DefaultConfig(), nil)
	a := d.Submit(0, Upgrade, 0x40)
	b := d.Submit(1, Upgrade, 0x80)
	d.RunUntilIdle(100)
	_, atA := txnDone(a)
	_, atB := txnDone(b)
	gap := atA - atB
	if gap < 0 {
		gap = -gap
	}
	if gap < int64(DefaultConfig().AddressCycles) {
		t.Errorf("address tenures overlapped: completions %d and %d", atA, atB)
	}
}

// Tagged out-of-order completion: a memory read issued before an
// intervention read completes after it (tags reorder), and the engine
// counts the reordering.
func TestOutOfOrderCompletion(t *testing.T) {
	calls := 0
	d := New(DefaultConfig(), func(tx *Txn) bool {
		calls++
		return calls == 2 // second transaction gets cache-to-cache supply
	})
	slow := d.Submit(0, Read, 0x100) // memory: 14 cycles
	fast := d.Submit(0, Read, 0x200) // intervention: 4 cycles
	d.RunUntilIdle(1000)
	_, atSlow := txnDone(slow)
	_, atFast := txnDone(fast)
	if atFast >= atSlow {
		t.Errorf("expected reordering: fast at %d, slow at %d", atFast, atSlow)
	}
	if d.Stats().OutOfOrderReturns == 0 {
		t.Error("out-of-order return not counted")
	}
}

// The in-order ablation forbids exactly that reordering.
func TestInOrderAblation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InOrderData = true
	calls := 0
	d := New(cfg, func(tx *Txn) bool {
		calls++
		return calls == 2
	})
	slow := d.Submit(0, Read, 0x100)
	fast := d.Submit(0, Read, 0x200)
	d.RunUntilIdle(1000)
	_, atSlow := txnDone(slow)
	_, atFast := txnDone(fast)
	if atFast < atSlow {
		t.Errorf("in-order mode reordered: fast %d before slow %d", atFast, atSlow)
	}
	if d.Stats().OutOfOrderReturns != 0 {
		t.Error("in-order mode counted reorders")
	}
}

// Pipelining: with depth 4, four reads from one master overlap their
// memory latencies; with depth 1 they serialize.
func TestPipelineDepthThroughput(t *testing.T) {
	run := func(depth int) int64 {
		cfg := DefaultConfig()
		cfg.MaxOutstanding = depth
		d := New(cfg, nil)
		for i := 0; i < 8; i++ {
			d.Submit(0, Read, uint64(i*64))
		}
		cycle, ok := d.RunUntilIdle(10000)
		if !ok {
			t.Fatal("did not drain")
		}
		return cycle
	}
	deep, shallow := run(4), run(1)
	if deep >= shallow {
		t.Errorf("depth 4 (%d cycles) not faster than depth 1 (%d)", deep, shallow)
	}
	if float64(shallow)/float64(deep) < 1.5 {
		t.Errorf("pipelining gain only %.2fx", float64(shallow)/float64(deep))
	}
}

// MaxOutstanding is a hard bound on in-flight transactions per master.
func TestOutstandingBound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxOutstanding = 2
	d := New(cfg, nil)
	for i := 0; i < 10; i++ {
		d.Submit(0, Read, uint64(i*64))
	}
	for i := 0; i < 500; i++ {
		d.Step()
		if got := d.inflightOf(0); got > 2 {
			t.Fatalf("inflight = %d exceeds bound", got)
		}
	}
}

func TestSubmitBadMasterPanics(t *testing.T) {
	d := New(DefaultConfig(), nil)
	defer func() {
		if recover() == nil {
			t.Error("bad master accepted")
		}
	}()
	d.Submit(9, Read, 0)
}

// Property: any transaction mix drains, completes exactly once each, and
// address tenure count equals the number of submissions.
func TestDrainProperty(t *testing.T) {
	f := func(kinds []uint8) bool {
		if len(kinds) > 64 {
			kinds = kinds[:64]
		}
		d := New(DefaultConfig(), nil)
		var txns []*Txn
		for i, k := range kinds {
			txns = append(txns, d.Submit(i%2, Kind(k%4), uint64(i*64)))
		}
		if _, ok := d.RunUntilIdle(100000); !ok {
			return false
		}
		for _, tx := range txns {
			if done, _ := txnDone(tx); !done {
				return false
			}
		}
		s := d.Stats()
		return s.Completed == int64(len(kinds)) && s.AddressTenures == int64(len(kinds))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Cross-validation against the analytic abstraction in internal/bus: at
// saturation, the dispatcher's address-tenure rate equals one tenure per
// AddressCycles — the same capacity the bus.SwitchedFabric's serialized
// snoop resource models.
func TestAddressCapacityMatchesAnalyticModel(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg, nil)
	const n = 400
	for i := 0; i < n; i++ {
		d.Submit(i%2, Upgrade, uint64(i*64))
	}
	cycle, ok := d.RunUntilIdle(100000)
	if !ok {
		t.Fatal("did not drain")
	}
	perTenure := float64(cycle) / n
	if perTenure < float64(cfg.AddressCycles)*0.95 || perTenure > float64(cfg.AddressCycles)*1.25 {
		t.Errorf("address capacity = %.2f cycles/tenure, analytic model uses %d", perTenure, cfg.AddressCycles)
	}
}
