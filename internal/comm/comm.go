// Package comm implements the communication microbenchmarks of Section
// 5.2 — one-way latency (Figure 9), message-sending time at the network
// saturation point, i.e. the LogP gap (Figure 10), unidirectional
// bandwidth (Figure 11) and simultaneous bidirectional bandwidth
// (Figure 12) — for PowerMANNA and for the paper's comparison systems,
// the user-space communication libraries BIP and FM on a Myrinet cluster
// of Pentium Pro 200 nodes.
//
// PowerMANNA is modelled from its parts: the PIO driver running on the
// node CPU (program-controlled FIFO fills and drains, status-register
// polls, direction turnaround), the link-interface FIFOs of
// internal/ni, and the network of internal/netsim. BIP and FM are
// parametric models: the paper itself takes their numbers from the
// literature (reference [9], measured on Pentium Pro 200 / Myrinet), and
// the constants here encode those published curves.
package comm

import "powermanna/internal/sim"

// System is a communication system under measurement. Sizes are payload
// bytes; bandwidths are payload bytes per second.
type System interface {
	// Name labels the system in figure output.
	Name() string
	// OneWayLatency is half the ping-pong time for an n-byte message.
	OneWayLatency(n int) sim.Time
	// Gap is the per-message time at the network saturation point (the
	// LogP gap): the steady-state spacing of back-to-back messages.
	Gap(n int) sim.Time
	// UniBandwidth is the achieved one-directional stream bandwidth.
	UniBandwidth(n int) float64
	// BiBandwidth is the total achieved bandwidth when both nodes send
	// and receive simultaneously (sum of both directions).
	BiBandwidth(n int) float64
}

// Sizes returns the payload sweep used by the figures: powers of two
// from lo to hi inclusive.
func Sizes(lo, hi int) []int {
	var out []int
	for n := lo; n <= hi; n *= 2 {
		out = append(out, n)
	}
	return out
}
