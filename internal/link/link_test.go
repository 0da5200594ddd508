package link

import (
	"testing"
	"testing/quick"

	"powermanna/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	if err := Default("t").Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	bad := []Config{
		{},
		{Clock: sim.ClockMHz(60)},
		{Clock: sim.ClockMHz(60), WidthBytes: 1, PropagationDelay: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestLinkRate(t *testing.T) {
	// Section 3.2: 60 Mbyte/s per direction, one byte per link cycle.
	cfg := Default("t")
	if bw := 1 / cfg.TransferTime(1).Seconds(); bw < 59e6 || bw > 61e6 {
		t.Errorf("link rate = %g B/s, want ~60 MB/s", bw)
	}
	// 64 bytes take 64 cycles ≈ 1.067 µs.
	tt := cfg.TransferTime(64)
	if tt < 1060*sim.Nanosecond || tt > 1070*sim.Nanosecond {
		t.Errorf("TransferTime(64) = %v, want ~1.067us", tt)
	}
}

// stream claims the wire for n bytes no earlier than at, the way the
// network's wormhole walk does: start when the wire is free, hold it for
// the transfer time, and report when the first and last byte reach the
// far end.
func stream(w *Wire, cfg Config, at sim.Time, n int) (first, last sim.Time) {
	start := sim.Max(at, w.FreeAt())
	dur := cfg.TransferTime(n)
	w.Hold(start, start+dur)
	return start + cfg.PropagationDelay + cfg.TransferTime(1), start + dur + cfg.PropagationDelay
}

func TestWireCutThrough(t *testing.T) {
	cfg := Default("t")
	w := new(Wire)
	first, last := stream(w, cfg, 0, 64)
	if first >= last {
		t.Fatal("first byte must precede last")
	}
	// First byte lands after ~1 cycle + propagation, long before the
	// last: wormhole cut-through at the wire level.
	if first > 50*sim.Nanosecond {
		t.Errorf("first byte at %v, want tens of ns", first)
	}
	if w.FreeAt() != cfg.TransferTime(64) {
		t.Errorf("FreeAt = %v, want the 64-byte transfer time", w.FreeAt())
	}
}

func TestWireSerializesTransfers(t *testing.T) {
	cfg := Default("t")
	w := new(Wire)
	_, last1 := stream(w, cfg, 0, 64)
	first2, _ := stream(w, cfg, 0, 64)
	if first2 <= last1-cfg.TransferTime(64) {
		t.Error("second transfer overlapped the first on one wire")
	}
	if w.FreeAt() != 2*cfg.TransferTime(64) {
		t.Errorf("FreeAt = %v, want two back-to-back transfers", w.FreeAt())
	}
	w.Reset()
	if w.FreeAt() != 0 {
		t.Error("Reset incomplete")
	}
}

func TestHoldPanicsOnInvertedWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("inverted hold window accepted")
		}
	}()
	new(Wire).Hold(10, 5)
}

// Property: wire times are monotone and rate-respecting for any request
// pattern.
func TestWireRateProperty(t *testing.T) {
	cfg := Default("p")
	f := func(sizes []uint8) bool {
		w := new(Wire)
		var total int
		var lastEnd sim.Time
		for _, s := range sizes {
			n := int(s)%256 + 1
			_, last := stream(w, cfg, 0, n)
			if last < lastEnd {
				return false
			}
			lastEnd = last
			total += n
		}
		// Total elapsed ≥ total bytes at the link rate.
		return lastEnd >= cfg.TransferTime(total)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDefaultTransceiver(t *testing.T) {
	tr := DefaultTransceiver()
	if tr.Latency <= 0 {
		t.Error("transceiver must add latency")
	}
}
