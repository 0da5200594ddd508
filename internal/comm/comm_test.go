package comm

import (
	"fmt"
	"testing"

	"powermanna/internal/sim"
)

func TestAllSystemsSane(t *testing.T) {
	for _, s := range []System{NewPowerMANNA(), BIP(), FM()} {
		if err := check(s); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

// check validates a System's basic sanity: positive latencies,
// monotone non-decreasing latency in n.
func check(s System) error {
	prev := sim.Time(0)
	for _, n := range Sizes(4, 4096) {
		l := s.OneWayLatency(n)
		if l <= 0 {
			return fmt.Errorf("comm %s: latency(%d) = %v", s.Name(), n, l)
		}
		if l < prev {
			return fmt.Errorf("comm %s: latency(%d) = %v below latency of smaller message %v", s.Name(), n, l, prev)
		}
		prev = l
		if g := s.Gap(n); g <= 0 {
			return fmt.Errorf("comm %s: gap(%d) = %v", s.Name(), n, g)
		}
		if bw := s.UniBandwidth(n); bw <= 0 {
			return fmt.Errorf("comm %s: uni(%d) = %g", s.Name(), n, bw)
		}
		if bw := s.BiBandwidth(n); bw <= 0 {
			return fmt.Errorf("comm %s: bi(%d) = %g", s.Name(), n, bw)
		}
	}
	return nil
}

func TestSizes(t *testing.T) {
	got := Sizes(4, 64)
	want := []int{4, 8, 16, 32, 64}
	if len(got) != len(want) {
		t.Fatalf("Sizes = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sizes = %v, want %v", got, want)
		}
	}
}

// The paper's headline: "8 bytes are transferred in 2.75 µs, whereas BIP
// takes 6.4 µs and FM 9.2 µs."
func TestFigure9Anchors(t *testing.T) {
	pm := NewPowerMANNA().OneWayLatency(8)
	if pm < 2500*sim.Nanosecond || pm > 3000*sim.Nanosecond {
		t.Errorf("PowerMANNA latency(8B) = %v, want ~2.75us", pm)
	}
	bip := BIP().OneWayLatency(8)
	if bip < 6200*sim.Nanosecond || bip > 6600*sim.Nanosecond {
		t.Errorf("BIP latency(8B) = %v, want ~6.4us", bip)
	}
	fm := FM().OneWayLatency(8)
	if fm < 9000*sim.Nanosecond || fm > 9400*sim.Nanosecond {
		t.Errorf("FM latency(8B) = %v, want ~9.2us", fm)
	}
	// PowerMANNA clearly outperforms both for short messages.
	if !(pm < bip && bip < fm) {
		t.Errorf("short-message ordering violated: pm=%v bip=%v fm=%v", pm, bip, fm)
	}
}

// Section 1: "less than 4 µs latency for small messages" even across the
// large system — our cluster pair must be well under that.
func TestSmallMessageLatencyBound(t *testing.T) {
	pm := NewPowerMANNA()
	for _, n := range []int{4, 8, 16, 32, 64} {
		if l := pm.OneWayLatency(n); l >= 4*sim.Microsecond {
			t.Errorf("latency(%d) = %v, want < 4us", n, l)
		}
	}
}

// Figure 11: PowerMANNA unidirectional bandwidth saturates at the
// 60 MB/s single-link limit; BIP reaches ~126 MB/s on Myrinet.
func TestFigure11Shapes(t *testing.T) {
	pm := NewPowerMANNA()
	uni := pm.UniBandwidth(64 << 10)
	if uni < 50e6 || uni > 61e6 {
		t.Errorf("PowerMANNA uni(64K) = %g, want ~60 MB/s", uni)
	}
	bip := BIP().UniBandwidth(64 << 10)
	if bip < 115e6 || bip > 130e6 {
		t.Errorf("BIP uni(64K) = %g, want ~126 MB/s", bip)
	}
	// Crossover: PowerMANNA wins small, BIP wins large.
	if pm.UniBandwidth(64) <= BIP().UniBandwidth(64) {
		t.Error("PowerMANNA should beat BIP at 64 B")
	}
	if uni >= bip {
		t.Error("BIP should beat PowerMANNA at 64 KB")
	}
}

// Figure 12: bidirectional bandwidth falls short of 2× unidirectional —
// the paper blames the four-line FIFOs forcing driver turnarounds.
func TestFigure12BidirectionalShortfall(t *testing.T) {
	pm := NewPowerMANNA()
	uni := pm.UniBandwidth(64 << 10)
	bi := pm.BiBandwidth(64 << 10)
	if bi >= 2*uni*0.95 {
		t.Errorf("bi = %g vs 2*uni = %g: expected a clear shortfall", bi, 2*uni)
	}
	if bi <= uni {
		t.Errorf("bi = %g should still beat one direction (%g)", bi, uni)
	}
}

// The paper: "This overhead could be significantly reduced if larger
// FIFO buffers were implemented." Quadrupling the FIFO must recover
// most of the lost bidirectional bandwidth.
func TestFIFOSizeAblation(t *testing.T) {
	small := NewPowerMANNA().BiBandwidth(64 << 10)
	p := DefaultPMParams()
	p.FIFOBytes *= 4
	big := NewPowerMANNAWith(p).BiBandwidth(64 << 10)
	if big <= small*1.1 {
		t.Errorf("4x FIFO: bi %g vs %g, want >10%% recovery", big, small)
	}
	if big > 122e6 {
		t.Errorf("bi %g exceeds the 120 MB/s dual-direction link limit", big)
	}
}

// Dual links: the duplicated network carries twice the unidirectional
// stream (240 MB/s per the paper counts both links, both directions).
func TestDualLinkAblation(t *testing.T) {
	p := DefaultPMParams()
	p.Links = 2
	dual := NewPowerMANNAWith(p)
	uni := dual.UniBandwidth(64 << 10)
	if uni < 100e6 || uni > 122e6 {
		t.Errorf("dual-link uni = %g, want ~120 MB/s", uni)
	}
	if dual.Name() != "PowerMANNA-dual" {
		t.Errorf("name = %q", dual.Name())
	}
}

func TestGapMonotoneAndWireBound(t *testing.T) {
	pm := NewPowerMANNA()
	prev := sim.Time(0)
	for _, n := range Sizes(4, 256<<10) {
		g := pm.Gap(n)
		if g < prev {
			t.Errorf("gap(%d) = %v decreased", n, g)
		}
		prev = g
		// Gap can never beat the wire.
		wire := sim.Time(n) * 16667 / 1000 * sim.Nanosecond
		if g < wire {
			t.Errorf("gap(%d) = %v below wire time %v", n, g, wire)
		}
	}
}

func TestPMDeterminism(t *testing.T) {
	a := NewPowerMANNA().BiBandwidth(4096)
	b := NewPowerMANNA().BiBandwidth(4096)
	if a != b {
		t.Errorf("non-deterministic bi bandwidth: %g vs %g", a, b)
	}
}

func TestDriverSimPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("size 0 accepted")
		}
	}()
	runDriverSim(DefaultPMParams(), 0, false)
}

func TestLatencyBreakdownSumsToLatency(t *testing.T) {
	pm := NewPowerMANNA()
	for _, n := range []int{8, 256, 4096} {
		var sum sim.Time
		for _, s := range pm.LatencyBreakdown(n) {
			sum += s.Time
		}
		if got := pm.OneWayLatency(n); sum != got {
			t.Errorf("breakdown sum %v != latency %v at %dB", sum, got, n)
		}
	}
	// The budget names the paper's path, nothing NIC-like.
	names := map[string]bool{}
	for _, s := range pm.LatencyBreakdown(8) {
		names[s.Name] = true
	}
	for _, want := range []string{"user-level send (PIO setup)", "route setup + wire (cut-through)", "user-level receive return"} {
		if !names[want] {
			t.Errorf("breakdown missing stage %q", want)
		}
	}
}
