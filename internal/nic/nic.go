// Package nic is a mechanistic model of the communication path the paper
// argues *against*: a network interface controller on the I/O bus, as in
// Myrinet clusters (Section 6: "Messages have to be additionally
// transferred between the processor and the NI which can be performed
// either via DMA or PIO, but in any case involves extra setup cost.
// Transfers from NI to NI always require setting up a DMA unit because of
// the slow copying performance of the NI processor").
//
// Where internal/comm's BIP/FM baselines are parametric encodings of
// published end-to-end numbers, this package builds the same path from
// its parts — host driver, doorbell write across PCI, DMA descriptor
// setup, the NIC's embedded processor, the wire, and the receive-side
// mirror — so the latency budget can be decomposed stage by stage and
// compared against PowerMANNA's CPU-driven interface. That the assembled
// mechanism lands on the same end-to-end numbers as the published BIP
// measurements is the model's cross-validation (see the tests).
package nic

import (
	"fmt"

	"powermanna/internal/sim"
)

// Config describes a PCI-attached NIC path (era: Myrinet LANai behind
// 32-bit/33 MHz PCI on a 200 MHz Pentium Pro host).
type Config struct {
	// Name labels the model.
	Name string
	// HostClock is the host CPU clock.
	HostClock sim.Clock
	// DriverSendCycles is the user-level send path on the host up to the
	// doorbell: argument checks, descriptor build, pinned-page lookup.
	DriverSendCycles int64
	// DriverRecvCycles is the receive path after data landed in host
	// memory: completion check, return to user.
	DriverRecvCycles int64
	// DoorbellNs is one uncached write crossing the PCI bridge.
	DoorbellNs sim.Time
	// DMASetupNs is the NIC-side cost to parse a descriptor and start a
	// DMA engine.
	DMASetupNs sim.Time
	// PCIBandwidth is the sustained PCI transfer rate (32-bit/33 MHz:
	// 132 MB/s theoretical, ~110 effective).
	PCIBandwidth float64
	// NICProcNs is the embedded processor's per-message work on each
	// side (header build/parse, route lookup) — the "slow copying
	// performance of the NI processor" made polite.
	NICProcNs sim.Time
	// WireBandwidth is the link rate (Myrinet: fast enough that PCI is
	// the real ceiling).
	WireBandwidth float64
	// WireLatencyNs is the switch+cable flight time.
	WireLatencyNs sim.Time
	// HostPollNs is the receiver's average completion-detection delay.
	HostPollNs sim.Time
	// PIOThresholdBytes: below this the driver copies by PIO (cheaper
	// than DMA setup for tiny messages); above it both sides run DMA.
	PIOThresholdBytes int
	// PIOWordNs is one PIO word (4 bytes) across PCI.
	PIOWordNs sim.Time
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.HostClock.Period <= 0:
		return fmt.Errorf("nic %q: zero host clock", c.Name)
	case c.PCIBandwidth <= 0 || c.WireBandwidth <= 0:
		return fmt.Errorf("nic %q: non-positive bandwidth", c.Name)
	case c.DriverSendCycles < 0 || c.DriverRecvCycles < 0:
		return fmt.Errorf("nic %q: negative driver cost", c.Name)
	case c.PIOThresholdBytes < 0:
		return fmt.Errorf("nic %q: negative PIO threshold", c.Name)
	}
	return nil
}

// MyrinetPPro returns the reference configuration: a Myrinet NIC behind
// PCI on a 200 MHz Pentium Pro, the cluster of the paper's Figures 9–12
// (constants calibrated so the assembled path reproduces the published
// BIP user-level numbers).
func MyrinetPPro() Config {
	return Config{
		Name:              "Myrinet-PCI",
		HostClock:         sim.ClockMHz(200),
		DriverSendCycles:  300, // calibrated: BIP's minimal user-level send
		DriverRecvCycles:  260, // calibrated
		DoorbellNs:        150 * sim.Nanosecond,
		DMASetupNs:        700 * sim.Nanosecond,
		PCIBandwidth:      126e6, // effective, post-arbitration
		NICProcNs:         900 * sim.Nanosecond,
		WireBandwidth:     160e6, // Myrinet wire; PCI is the ceiling
		WireLatencyNs:     400 * sim.Nanosecond,
		HostPollNs:        300 * sim.Nanosecond,
		PIOThresholdBytes: 64,
		PIOWordNs:         60 * sim.Nanosecond, // one 4-byte PCI write, write-combined burst
	}
}

// Stage is one leg of the latency budget.
type Stage struct {
	Name string
	Time sim.Time
}

// Breakdown returns the one-way latency budget for an n-byte message,
// stage by stage in path order.
func (c Config) Breakdown(n int) []Stage {
	cyc := func(k int64) sim.Time { return c.HostClock.Cycles(k) }
	bw := func(bytes int, bps float64) sim.Time {
		return sim.Time(float64(bytes) / bps * 1e12)
	}
	var stages []Stage
	add := func(name string, t sim.Time) { stages = append(stages, Stage{name, t}) }

	add("host driver send", cyc(c.DriverSendCycles))
	add("doorbell (PCI write)", c.DoorbellNs)
	if n <= c.PIOThresholdBytes {
		words := (n + 3) / 4
		add("payload PIO over PCI", sim.Time(words)*c.PIOWordNs)
	} else {
		add("DMA setup (NIC)", c.DMASetupNs)
		add("payload DMA over PCI", bw(n, c.PCIBandwidth))
	}
	add("NIC processor (send)", c.NICProcNs)
	add("wire", c.WireLatencyNs+bw(n, c.WireBandwidth))
	add("NIC processor (recv)", c.NICProcNs)
	add("DMA to host memory", c.DMASetupNs/2+bw(n, c.PCIBandwidth))
	add("host poll", c.HostPollNs)
	add("host driver recv", cyc(c.DriverRecvCycles))
	return stages
}

// OneWayLatency sums the budget.
func (c Config) OneWayLatency(n int) sim.Time {
	var t sim.Time
	for _, s := range c.Breakdown(n) {
		t += s.Time
	}
	return t
}
