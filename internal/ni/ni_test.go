package ni

import "testing"

func TestFIFOGeometry(t *testing.T) {
	// Section 3.3: 32 words of 64 bits = 256 bytes = 4 cache lines.
	if FIFOBytes != 256 {
		t.Errorf("FIFOBytes = %d, want 256", FIFOBytes)
	}
}

func TestWireBytes(t *testing.T) {
	// 1 route byte + 2 length + 8 payload + 2 CRC + 1 close = 14.
	if got := WireBytes(1, 8); got != 14 {
		t.Errorf("WireBytes(1,8) = %d, want 14", got)
	}
}

func TestNIReset(t *testing.T) {
	var n NI
	if len(n.Links) != 2 {
		t.Fatal("node NI must have two link interfaces (duplicated network)")
	}
	n.Links[0].Stall(0, 10)
	n.Links[1].Stall(5, 20)
	n.Reset()
	if n.Links[0].ReadyAt(0) != 0 || n.Links[1].ReadyAt(5) != 5 {
		t.Error("Reset kept stall windows")
	}
}
