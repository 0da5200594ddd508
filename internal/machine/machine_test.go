package machine

import (
	"strings"
	"testing"

	"powermanna/internal/mem"
	"powermanna/internal/node"
)

func TestAllConfigsValidate(t *testing.T) {
	for _, cfg := range All() {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	for _, n := range []int{1, 2, 3, 4, 6} {
		cfg := PowerMANNAWithCPUs(n)
		if err := cfg.Validate(); err != nil {
			t.Errorf("PowerMANNA(%d cpus): %v", n, err)
		}
		if cfg.CPUs != n {
			t.Errorf("CPUs = %d, want %d", cfg.CPUs, n)
		}
	}
}

func TestTable1Parameters(t *testing.T) {
	pm := PowerMANNA()
	if pm.Core.Clock.MHz() < 179 || pm.Core.Clock.MHz() > 181 {
		t.Errorf("PowerMANNA clock = %g", pm.Core.Clock.MHz())
	}
	if pm.L1D.SizeBytes != 32<<10 || pm.L2.SizeBytes != 2<<20 {
		t.Error("PowerMANNA cache sizes wrong")
	}
	if pm.L2.LineBytes != 64 {
		t.Error("PowerMANNA line must be 64 bytes (Table 1)")
	}
	if pm.Fabric != node.SwitchedFabric {
		t.Error("PowerMANNA must use the switched fabric")
	}
	if pm.Core.MissQueue != 1 {
		t.Error("MPC620 must have no load pipelining (MissQueue 1)")
	}
	if !pm.Core.HasFMA {
		t.Error("MPC620 must have fused multiply-add")
	}

	sun := SunUltra()
	if sun.L2.LineBytes != 32 || sun.L1D.SizeBytes != 16<<10 {
		t.Error("SUN cache geometry wrong")
	}
	if !sun.Core.InOrderExec {
		t.Error("UltraSPARC-I is in-order")
	}
	if sun.Bus.Clock.MHz() < 83 || sun.Bus.Clock.MHz() > 85 {
		t.Errorf("SUN bus clock = %g, want 84", sun.Bus.Clock.MHz())
	}

	pc180, pc266 := PentiumII(180), PentiumII(266)
	if pc180.Bus.Clock.MHz() > 61 && pc180.Bus.Clock.MHz() < 59 {
		t.Error("downclocked PC must use 60 MHz bus")
	}
	if pc266.Bus.Clock.MHz() < 65 || pc266.Bus.Clock.MHz() > 67 {
		t.Error("native PC must use 66 MHz bus")
	}
	if pc180.Core.MissQueue <= 1 {
		t.Error("Pentium II must have non-blocking loads")
	}
	if pc180.Core.HasFMA {
		t.Error("Pentium II has no fused multiply-add")
	}
}

func TestPowerMANNAMemoryBandwidth(t *testing.T) {
	// Section 2: 640 MB/s node memory. A stream of line reads presented
	// at once is paced by the memory datapath.
	cfg := PowerMANNA().Mem
	m := mem.New(cfg)
	const lines = 64
	first := m.ReadLine(0, 0)
	last := first
	for i := uint64(1); i < lines; i++ {
		last = m.ReadLine(0, i*uint64(cfg.InterleaveBytes))
	}
	bw := float64((lines-1)*cfg.InterleaveBytes) / (last - first).Seconds()
	if bw < 630e6 || bw > 650e6 {
		t.Errorf("PowerMANNA memory bandwidth = %g B/s, want ~640 MB/s", bw)
	}
}

func TestPentiumIIRejectsOtherClocks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PentiumII(200) did not panic")
		}
	}()
	PentiumII(200)
}

func TestTable1Rendering(t *testing.T) {
	tbl := Table1()
	for _, want := range []string{
		"PowerMANNA", "UltraSPARC-I", "PentiumII-266",
		"180 MHz", "168 MHz", "84 MHz",
		"32 Kbyte", "2048 Kbyte", "64 byte", "32 byte",
		"512 Mbyte", "switched", "shared-bus",
	} {
		if !strings.Contains(tbl, want) {
			t.Errorf("Table1 missing %q:\n%s", want, tbl)
		}
	}
}

func TestNodesBuild(t *testing.T) {
	for _, cfg := range All() {
		n := node.New(cfg)
		// Smoke: a cold access then a warm one.
		p := n.Proc(0)
		cold := p.Access(0x100000, false)
		warm := p.Access(0x100000, false)
		if warm >= cold {
			t.Errorf("%s: warm latency %d >= cold %d", cfg.Name, warm, cold)
		}
	}
}
