package mem

import (
	"testing"
	"testing/quick"

	"powermanna/internal/sim"
)

func testConfig() Config {
	return Config{
		Banks:           4,
		InterleaveBytes: 64,
		AccessLatency:   100 * sim.Nanosecond,
		BankBusy:        160 * sim.Nanosecond,
		LineTransfer:    100 * sim.Nanosecond,
		SizeBytes:       512 << 20,
	}
}

func TestValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Banks: 0, InterleaveBytes: 64},
		{Banks: 4, InterleaveBytes: 0},
		{Banks: 4, InterleaveBytes: 64, AccessLatency: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestStreamBandwidth(t *testing.T) {
	// A sequential stream of line reads, all presented at time 0, is
	// paced by the datapath: 64 B per 100 ns = 640 MB/s, the paper's
	// figure for the PowerMANNA node.
	m := New(testConfig())
	const lines = 64
	first := m.ReadLine(0, 0)
	last := first
	for i := uint64(1); i < lines; i++ {
		last = m.ReadLine(0, i*64)
	}
	bw := float64((lines-1)*64) / (last - first).Seconds()
	if bw < 639e6 || bw > 641e6 {
		t.Errorf("stream bandwidth = %g B/s, want ~640e6", bw)
	}
}

func TestSingleReadLatency(t *testing.T) {
	m := New(testConfig())
	done := m.ReadLine(0, 0)
	want := 200 * sim.Nanosecond // 100 access + 100 transfer
	if done != want {
		t.Errorf("ReadLine done = %v, want %v", done, want)
	}
}

func TestSequentialStreamPipelinesAcrossBanks(t *testing.T) {
	m := New(testConfig())
	// 16 consecutive lines hit banks round-robin; steady-state spacing
	// should be the datapath occupancy (100 ns), not latency+busy.
	var last sim.Time
	for i := 0; i < 16; i++ {
		last = m.ReadLine(0, uint64(i*64))
	}
	// Ideal: 100ns latency + 16*100ns transfers = 1700ns.
	ideal := 1700 * sim.Nanosecond
	if last > ideal+200*sim.Nanosecond {
		t.Errorf("streamed 16 lines in %v, want close to %v", last, ideal)
	}
	bw := float64(16*64) / last.Seconds()
	if bw < 550e6 {
		t.Errorf("stream bandwidth %g B/s, want >550 MB/s", bw)
	}
}

func TestSameBankStrideSerializes(t *testing.T) {
	m := New(testConfig())
	// Stride of Banks*Interleave keeps hitting bank 0: each access pays the
	// full bank cycle; throughput drops versus the interleaved stream.
	var last sim.Time
	for i := 0; i < 16; i++ {
		last = m.ReadLine(0, uint64(i*4*64))
	}
	mi := New(testConfig())
	var lastInterleaved sim.Time
	for i := 0; i < 16; i++ {
		lastInterleaved = mi.ReadLine(0, uint64(i*64))
	}
	if last <= lastInterleaved {
		t.Errorf("same-bank stride (%v) should be slower than interleaved (%v)", last, lastInterleaved)
	}
}

func TestWriteLineOccupiesDatapath(t *testing.T) {
	m := New(testConfig())
	acc := m.WriteLine(0, 0)
	if acc != 100*sim.Nanosecond {
		t.Errorf("write accepted at %v, want 100ns", acc)
	}
	// A read to the same bank right behind the write queues behind the
	// bank's write cycle.
	done := m.ReadLine(0, 0)
	if done <= 200*sim.Nanosecond {
		t.Errorf("read after write done at %v, should see bank contention", done)
	}
}

func TestStatsAndReset(t *testing.T) {
	m := New(testConfig())
	m.ReadLine(0, 0)
	m.ReadLine(0, 64)
	m.WriteLine(0, 128)
	s := m.Stats()
	if s.Reads != 2 || s.Writes != 1 {
		t.Errorf("stats = %+v, want 2 reads 1 write", s)
	}
	if s.DatapathBusy != 300*sim.Nanosecond {
		t.Errorf("DatapathBusy = %v, want 300ns", s.DatapathBusy)
	}
	m.Reset()
	if s := m.Stats(); s.Reads != 0 || s.Writes != 0 || s.DatapathBusy != 0 {
		t.Errorf("after reset stats = %+v", s)
	}
}

// Property: completion times are non-decreasing for non-decreasing request
// times on any address pattern, and every read takes at least
// AccessLatency+LineTransfer.
func TestReadLatencyLowerBoundProperty(t *testing.T) {
	cfg := testConfig()
	minLat := cfg.AccessLatency + cfg.LineTransfer
	f := func(addrs []uint32) bool {
		m := New(cfg)
		at := sim.Time(0)
		prev := sim.Time(0)
		for _, a := range addrs {
			done := m.ReadLine(at, uint64(a))
			if done < at+minLat || done < prev {
				return false
			}
			prev = done
			at += 10 * sim.Nanosecond
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
