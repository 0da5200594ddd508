// The background operating-system stream on plane B.
//
// Section 4 of the paper motivates the duplicated communication system
// partly with software separation: "the operating system can use its own
// network" while applications own the other. For fault campaigns this
// matters because a failover retry lands on plane B — and a realistic
// plane B is not idle, it carries OS traffic. The OS stream models that
// load as a deterministic message train: every DefaultOSInterval, a
// DefaultOSBytes message between a rotating node pair enters plane B and
// claims its circuits like any other send, so application retries queue
// behind it exactly where the hardware would make them queue.
//
// Two schedules exist:
//
//   - the fixed train: one small message every DefaultOSInterval from
//     time zero — steady kernel bookkeeping traffic;
//   - the bursty schedule (Bursty): the same timer-tick train plus a
//     periodic page-daemon burst — every DefaultBurstEvery, a run of
//     DefaultBurstMessages back-to-back DefaultBurstBytes messages from
//     a seed-chosen node, jittered within one tick interval. The burst
//     start and source are a pure function of (Seed, burst ordinal), so
//     the schedule is deterministic per seed with no math/rand in the
//     simulation core.
//
// The stream is advanced lazily: before each reliable-send attempt the
// transport injects every OS message whose entry time has passed. The
// injection order is therefore a pure function of the send sequence, and
// two identical runs stay byte-identical.
package netsim

import (
	"powermanna/internal/link"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
	"powermanna/internal/trace"
)

// Default OS-stream parameters: a steady control-message load that
// occupies plane B a few percent of the time — enough to be felt by
// failover retries without starving them.
const (
	// DefaultOSInterval spaces the OS messages.
	DefaultOSInterval = 10 * sim.Microsecond
	// DefaultOSBytes is the OS message payload (kernel bookkeeping
	// traffic: scheduling tokens, page metadata — small messages).
	DefaultOSBytes = 128
	// DefaultBurstEvery spaces the page-daemon bursts of the bursty
	// schedule.
	DefaultBurstEvery = 100 * sim.Microsecond
	// DefaultBurstMessages is the burst length in messages.
	DefaultBurstMessages = 6
	// DefaultBurstBytes is the payload of each burst message (page-sized
	// transfers, much larger than the timer ticks).
	DefaultBurstBytes = 1024
)

// OSStreamConfig selects the background system-software load on plane
// B of the duplicated network. The train and burst shapes are the
// Default* constants above.
type OSStreamConfig struct {
	// Bursty layers periodic page-daemon bursts over the timer-tick
	// train.
	Bursty bool
	// Seed positions each burst (start jitter and source node)
	// deterministically; same seed, same schedule.
	Seed int64
}

// DefaultOSStream returns the calibrated background load.
func DefaultOSStream() OSStreamConfig { return OSStreamConfig{} }

// BurstyOSStream returns the bursty schedule: the default timer-tick
// train plus seed-positioned page-daemon bursts.
func BurstyOSStream(seed int64) OSStreamConfig {
	return OSStreamConfig{Bursty: true, Seed: seed}
}

// osStream is the lazily-advanced injection state.
type osStream struct {
	cfg  OSStreamConfig
	next sim.Time
	idx  int64
	// Burst state: the current burst's next message time, messages left,
	// chosen source, and the ordinal of the next burst to arm.
	burstAt   sim.Time
	burstLeft int
	burstSrc  int
	burstK    int64
}

// AttachOSStream starts a background OS stream on plane B. Attaching
// replaces any previous stream; Reset re-arms the stream to its start.
// On topologies without a plane-B route between the chosen pair the
// message is dropped and counted, not silently ignored.
func (n *Network) AttachOSStream(cfg OSStreamConfig) {
	n.os = &osStream{cfg: cfg}
	n.os.rearm()
}

// rearm resets the stream to its start: tick train at time zero, first
// burst armed from ordinal zero.
func (os *osStream) rearm() {
	os.next = 0
	os.idx = 0
	os.burstK = 0
	os.burstLeft = 0
	if os.cfg.Bursty {
		os.armBurst()
	}
}

// armBurst positions burst number burstK: its start jitters within one
// tick interval of the nominal k*DefaultBurstEvery mark and its source node
// follows the seed, both via the same multiplicative xorshift mix the
// topology uses for deterministic port shuffling (no math/rand in the
// simulation core).
func (os *osStream) armBurst() {
	j := osJitter(os.cfg.Seed, os.burstK)
	os.burstAt = sim.Time(os.burstK)*DefaultBurstEvery + sim.Time(j%int64(DefaultOSInterval))
	os.burstSrc = int(osJitter(os.cfg.Seed, os.burstK+1) >> 8)
	os.burstLeft = DefaultBurstMessages
	os.burstK++
}

// osJitter mixes (seed, k) into a non-negative pseudo-random value —
// xorshift over a multiplicative hash, the same idiom as topo's port
// shuffling.
func osJitter(seed, k int64) int64 {
	x := seed*2654435761 + k*1_000_003 + 1
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	if x < 0 {
		x = -x
	}
	return x
}

// advanceOS injects every OS message whose entry time is at or before
// now — timer ticks and, under the bursty schedule, page-daemon burst
// messages, merged in time order. Calls with a non-monotone now are
// no-ops for the earlier time, so the injection sequence is a pure
// function of the reliable-send sequence. Each message claims plane-B
// circuits through the ordinary wormhole send; severed plane-B wires
// turn messages into drops.
func (n *Network) advanceOS(now sim.Time) {
	os := n.os
	if os == nil {
		return
	}
	nodes := n.topo.Nodes()
	if nodes < 2 {
		return
	}
	pc := &n.planes[topo.NetworkB]
	for {
		// The earliest pending event: the next timer tick, or the next
		// burst message if it comes first.
		at, bytes := os.next, DefaultOSBytes
		src := int(os.idx % int64(nodes))
		burst := os.cfg.Bursty && os.burstLeft > 0 && os.burstAt < at
		if burst {
			at, bytes = os.burstAt, DefaultBurstBytes
			src = os.burstSrc % nodes
		}
		if at > now {
			return
		}
		if burst {
			// Burst messages chain back-to-back at line rate; the next
			// burst is armed once this one drains.
			os.burstAt = at + sim.Time(bytes)*link.BytePeriod
			os.burstLeft--
			if os.burstLeft == 0 {
				os.armBurst()
			}
		} else {
			os.idx++
			os.next += DefaultOSInterval
		}
		dst := (src + nodes/2) % nodes
		if dst == src {
			dst = (src + 1) % nodes
		}
		row := n.topo.RoutesFrom(src)
		path, err := row.Route(dst, topo.NetworkB)
		if err != nil {
			n.traceOSDrop(at)
			pc.OSDropped++
			continue
		}
		n.osSending = true
		_, res := n.send(at, path, bytes, 0, 0)
		n.osSending = false
		if res.outcome == walkFailed {
			n.traceOSDrop(at)
			pc.OSDropped++
			continue
		}
		pc.OSMessages++
	}
}

// traceOSDrop records a dropped OS message on the OS track.
func (n *Network) traceOSDrop(at sim.Time) {
	if n.rec.Enabled() {
		n.rec.Instant(trace.OSTrack(), "os", "drop", at)
	}
}
