package nic

import (
	"testing"

	"powermanna/internal/comm"
	"powermanna/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	if err := MyrinetPPro().Validate(); err != nil {
		t.Fatalf("reference config rejected: %v", err)
	}
	bad := []Config{
		{},
		{HostClock: sim.ClockMHz(200)},
		{HostClock: sim.ClockMHz(200), PCIBandwidth: 1e8, WireBandwidth: 1e8, DriverSendCycles: -1},
		{HostClock: sim.ClockMHz(200), PCIBandwidth: 1e8, WireBandwidth: 1e8, PIOThresholdBytes: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// Cross-validation: the mechanistic PCI-NIC path, assembled from parts,
// must land on the published end-to-end BIP numbers that the parametric
// baseline in internal/comm encodes.
func TestMechanisticModelMatchesBIP(t *testing.T) {
	m := MyrinetPPro()
	bip := comm.BIP()
	for _, n := range []int{8, 16, 32, 64} {
		mech := m.OneWayLatency(n).Micros()
		pub := bip.OneWayLatency(n).Micros()
		ratio := mech / pub
		if ratio < 0.8 || ratio > 1.2 {
			t.Errorf("latency(%dB): mechanistic %.2fus vs published %.2fus (ratio %.2f)", n, mech, pub, ratio)
		}
	}
}

// The paper's Section 3.3 argument, quantified: the PCI-NIC path carries
// stages the CPU-driven interface simply does not have, and they
// dominate the small-message budget.
func TestNICOverheadStagesDominate(t *testing.T) {
	m := MyrinetPPro()
	stages := m.Breakdown(8)
	var overhead, wire sim.Time
	for _, s := range stages {
		switch s.Name {
		case "wire":
			wire += s.Time
		default:
			overhead += s.Time
		}
	}
	if overhead < 5*wire {
		t.Errorf("NIC path overhead %v not dominating wire %v at 8B", overhead, wire)
	}
}

func TestBreakdownSumsToLatency(t *testing.T) {
	m := MyrinetPPro()
	for _, n := range []int{8, 128, 4096} {
		var sum sim.Time
		for _, s := range m.Breakdown(n) {
			sum += s.Time
		}
		if sum != m.OneWayLatency(n) {
			t.Errorf("breakdown sum %v != latency %v at %dB", sum, m.OneWayLatency(n), n)
		}
	}
}

func TestPIOThreshold(t *testing.T) {
	m := MyrinetPPro()
	hasStage := func(n int, name string) bool {
		for _, s := range m.Breakdown(n) {
			if s.Name == name {
				return true
			}
		}
		return false
	}
	if !hasStage(8, "payload PIO over PCI") {
		t.Error("small message should use PIO")
	}
	if !hasStage(1024, "DMA setup (NIC)") {
		t.Error("large message should use DMA")
	}
}

// PowerMANNA's direct interface beats the PCI-NIC at small sizes by the
// margin the paper reports (2.75 vs 6.4 µs), and its budget has no NIC
// stages at all.
func TestDirectInterfaceWinsSmallMessages(t *testing.T) {
	pm := comm.NewPowerMANNA()
	m := MyrinetPPro()
	pmLat := pm.OneWayLatency(8)
	nicLat := m.OneWayLatency(8)
	ratio := float64(nicLat) / float64(pmLat)
	if ratio < 1.8 || ratio > 3.0 {
		t.Errorf("NIC/direct ratio = %.2f, paper reports 6.4/2.75 = 2.33", ratio)
	}
	for _, s := range pm.LatencyBreakdown(8) {
		switch s.Name {
		case "DMA setup (NIC)", "doorbell (PCI write)", "NIC processor (send)":
			t.Errorf("PowerMANNA budget contains NIC stage %q", s.Name)
		}
	}
}
