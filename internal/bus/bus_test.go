package bus

import (
	"testing"

	"powermanna/internal/mem"
	"powermanna/internal/sim"
)

func testMem() *mem.Memory {
	return mem.New(mem.Config{
		Banks:           4,
		InterleaveBytes: 64,
		AccessLatency:   100 * sim.Nanosecond,
		BankBusy:        160 * sim.Nanosecond,
		LineTransfer:    100 * sim.Nanosecond,
	})
}

func testCfg() Config {
	return Config{
		Name:          "test",
		Clock:         sim.ClockMHz(60),
		AddressCycles: 2,
		DataBeatBytes: 16,
		LineBytes:     64,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := testCfg().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{},
		{Clock: sim.ClockMHz(60)},
		{Clock: sim.ClockMHz(60), AddressCycles: 1},
		{Clock: sim.ClockMHz(60), AddressCycles: 1, DataBeatBytes: 8},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestConfigDurations(t *testing.T) {
	c := testCfg()
	period := c.Clock.Period
	if got := c.addressTime(); got != 2*period {
		t.Errorf("addressTime = %v, want 2 cycles", got)
	}
	// 64B at 16B/beat = 4 beats.
	if got := c.lineTime(); got != 4*period {
		t.Errorf("lineTime = %v, want 4 cycles", got)
	}
}

func TestSharedBusSerializesEverything(t *testing.T) {
	m := testMem()
	b := NewShared(testCfg(), m)
	// Two concurrent read misses from different CPUs: address phases
	// serialize on the wires.
	g1 := b.GrantAddress(0)
	g2 := b.GrantAddress(0)
	if g2 <= g1 {
		t.Errorf("second grant %v not after first %v", g2, g1)
	}
	addr := testCfg().addressTime()
	if g1 != addr || g2 != 2*addr {
		t.Errorf("grants = %v, %v; want %v, %v", g1, g2, addr, 2*addr)
	}
	s := b.Stats()
	if s.AddressPhases != 2 || s.AddressWait != addr {
		t.Errorf("stats = %+v", s)
	}
}

func TestSharedBusFillFromMemory(t *testing.T) {
	b := NewShared(testCfg(), testMem())
	grant := b.GrantAddress(0)
	done := b.FillLine(grant, 1, FromMemory)
	// Memory: 100ns latency + 100ns transfer; bus data phase: 4 cycles.
	min := grant + 200*sim.Nanosecond + testCfg().lineTime()
	if done != min {
		t.Errorf("fill done = %v, want %v", done, min)
	}
	if b.Stats().LinesMoved != 1 {
		t.Error("LinesMoved not counted")
	}
}

func TestSharedBusFillFromPeerSkipsMemory(t *testing.T) {
	m := testMem()
	b := NewShared(testCfg(), m)
	grant := b.GrantAddress(0)
	done := b.FillLine(grant, 1, FromPeer)
	if done != grant+testCfg().lineTime() {
		t.Errorf("peer fill done = %v, want %v", done, grant+testCfg().lineTime())
	}
	if m.Stats().Reads != 0 {
		t.Error("peer fill touched memory")
	}
}

func TestSharedBusContention(t *testing.T) {
	// Two CPUs streaming memory fills: total time must exceed one CPU's
	// time because data phases share the wires.
	run := func(cpus int) sim.Time {
		b := NewShared(testCfg(), testMem())
		var last sim.Time
		t := make([]sim.Time, cpus)
		for i := 0; i < 32; i++ {
			for c := 0; c < cpus; c++ {
				grant := b.GrantAddress(t[c])
				t[c] = b.FillLine(grant, uint64(i*cpus+c), FromMemory)
				if t[c] > last {
					last = t[c]
				}
			}
		}
		return last
	}
	one, two := run(1), run(2)
	if two <= one {
		t.Errorf("2-CPU stream (%v) not slower than 1-CPU (%v)", two, one)
	}
}

func TestSwitchedFabricConcurrentData(t *testing.T) {
	cfg := testCfg()
	// Peer-to-peer fills on the switched fabric ride private
	// point-to-point paths: two at once don't contend at all. On the
	// shared bus they serialize on the data wires.
	f := NewSwitched(cfg, testMem())
	d1 := f.FillLine(0, 1, FromPeer)
	d2 := f.FillLine(0, 2, FromPeer)
	if d1 != d2 {
		t.Errorf("concurrent peer fill times differ: %v vs %v (switched paths are private)", d1, d2)
	}
	b := NewShared(cfg, testMem())
	s1 := b.FillLine(0, 1, FromPeer)
	s2 := b.FillLine(0, 2, FromPeer)
	if s2 <= s1 {
		t.Errorf("shared-bus peer fills did not serialize: %v, %v", s1, s2)
	}
}

func TestSwitchedFabricSerializesOnlyAddressPhases(t *testing.T) {
	f := NewSwitched(testCfg(), testMem())
	g1 := f.GrantAddress(0)
	g2 := f.GrantAddress(0)
	if g2 <= g1 {
		t.Error("address phases must serialize on the dispatcher")
	}
	// Data from memory for two different banks can overlap except on the
	// memory datapath; the fabric adds no extra serialization.
	done1 := f.FillLine(g1, 0, FromMemory)
	done2 := f.FillLine(g2, 1, FromMemory)
	// Bank-parallel: second fill should complete exactly one datapath slot
	// after the first, not a full memory latency later.
	gap := done2 - done1
	if gap > 150*sim.Nanosecond {
		t.Errorf("switched memory fills gap = %v, want <=~100ns (datapath only)", gap)
	}
}

func TestSwitchedWritebackAndUpgrade(t *testing.T) {
	f := NewSwitched(testCfg(), testMem())
	done := f.WritebackLine(0, 5)
	if done <= 0 {
		t.Error("writeback returned non-positive time")
	}
	up := f.Upgrade(done)
	if up <= done {
		t.Error("upgrade did not consume an address phase")
	}
	s := f.Stats()
	if s.AddressPhases != 2 { // writeback + upgrade
		t.Errorf("AddressPhases = %d, want 2", s.AddressPhases)
	}
}

func TestSnoopUtilization(t *testing.T) {
	f := NewSwitched(testCfg(), testMem())
	for i := 0; i < 10; i++ {
		f.GrantAddress(0)
	}
	window := f.GrantAddress(0)
	u := f.SnoopUtilization(window)
	if u < 0.99 || u > 1.01 {
		t.Errorf("back-to-back snoop utilization = %g, want ~1", u)
	}
}

func TestResetClearsState(t *testing.T) {
	for _, f := range []Fabric{
		NewShared(testCfg(), testMem()),
		NewSwitched(testCfg(), testMem()),
	} {
		f.GrantAddress(0)
		f.FillLine(0, 1, FromPeer)
		f.Reset()
		s := f.Stats()
		if s.AddressPhases != 0 || s.DataPhases != 0 {
			t.Errorf("%T: stats not reset: %+v", f, s)
		}
		if g := f.GrantAddress(0); g != testCfg().addressTime() {
			t.Errorf("%T: timeline not reset, grant = %v", f, g)
		}
	}
}

// Address and data phases of different transactions overlap on the
// shared bus: the P6/UPA wire groups are physically separate.
func TestSharedBusAddressDataOverlap(t *testing.T) {
	b := NewShared(testCfg(), testMem())
	// CPU0 starts a fill whose data phase will occupy the data wires.
	g0 := b.GrantAddress(0)
	done0 := b.FillLine(g0, 0, FromPeer)
	// CPU1's address phase can proceed while CPU0's data moves.
	g1 := b.GrantAddress(g0)
	if g1 >= done0 {
		t.Errorf("address phase at %v waited for data phase ending %v", g1, done0)
	}
}

func TestSourceString(t *testing.T) {
	if FromMemory.String() != "memory" || FromPeer.String() != "peer" {
		t.Error("Source.String wrong")
	}
}

func TestSharedBusWritebackAndUpgrade(t *testing.T) {
	m := testMem()
	b := NewShared(testCfg(), m)
	done := b.WritebackLine(0, 3)
	if done <= 0 {
		t.Error("writeback non-positive")
	}
	if m.Stats().Writes != 1 {
		t.Error("writeback did not reach memory")
	}
	up := b.Upgrade(done)
	if up <= done {
		t.Error("upgrade did not consume an address phase")
	}
	if s := b.Stats(); s.LinesMoved != 1 || s.AddressPhases != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestConstructorsPanicOnBadConfig(t *testing.T) {
	for name, fn := range map[string]func(){
		"shared":   func() { NewShared(Config{}, testMem()) },
		"switched": func() { NewSwitched(Config{}, testMem()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: bad config did not panic", name)
				}
			}()
			fn()
		}()
	}
}
