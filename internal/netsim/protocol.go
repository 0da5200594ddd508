// The sender side of the driver-level failover protocol (failover.go),
// written once as a resumable cursor that both send executors drive.
// Each real attempt is the one header walk (Network.walk), run
//
//   - by Transport.Send, the synchronous executor, over the whole path
//     in one Network.send call, so the cursor runs to its outcome inside
//     a single call;
//   - by psend (psend.go), the split-phase executor, as source and
//     destination legs whose verdict may arrive in a later event on
//     another shard, so the cursor is parked inside the in-flight send
//     and resumed from the verdict.
//
// The cursor owns every decision the sender makes: the three passes
// (preferred order with plane-down cache skips, a probe of the skipped
// planes, then alternation over soft-failed planes until the attempt
// budget runs out), FIFO-stall abandonment, the plane-down cache, the
// same-plane CRC re-send budget, the sender's clock and its latency
// decomposition, the failover trace spans, and the final Delivery and
// its observation. The executors own the scheduling of the walk and
// where its discoveries are counted (PlaneCounters.lost for a silent
// failure, Network.arrived for a CRC error or a delivery): where the
// walk discovers them, which on the split-phase path is the
// destination shard.
package netsim

import (
	"fmt"

	"powermanna/internal/ni"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
	"powermanna/internal/trace"
)

// sendState is one reliable send's protocol cursor: where the sender is
// in its passes, its clock and budgets, and the attempt in progress.
type sendState struct {
	tp *Transport
	// planes, met and rec receive the protocol's counters and
	// observations: the network's own on the synchronous path, the source
	// shard's on the split-phase one.
	planes *[ni.LinksPerNode]PlaneCounters
	met    *netInstruments
	rec    *trace.Recorder
	// tenant indexes met's per-tenant histograms; -1 when unlabelled.
	dst, payloadBytes, tenant int
	// at is the requested entry time; elapsed accumulates every
	// detection window, status check and backoff since.
	at, elapsed sim.Time
	// detect and retry split elapsed for the latency decomposition:
	// detection windows (ack timeouts, NACK returns, stall abandons,
	// plane-down status checks) versus backoff pauses. Every update to
	// elapsed maintains elapsed == detect + retry, which is what makes
	// Decomp sum to Latency() exactly.
	detect, retry sim.Time
	attempts      int
	// maxAttempts is the resolved real-attempt budget; crcLeft the
	// remaining same-plane re-sends the CRCRetries budget allows.
	maxAttempts int
	crcLeft     int
	skipped     []int
	// hard marks planes ruled out by hard evidence (severed wire) —
	// never worth a retry within this send.
	hard [ni.LinksPerNode]bool
	// pass (1-3) and idx are the cursor's position; progress records
	// that the current pass-3 sweep made a real attempt; again that a
	// NACK spent CRC budget, so the next attempt re-sends on plane.
	pass, idx int
	progress  bool
	again     bool
	// The current attempt: its plane and path, the sender's clock when
	// it was posted and its entry time into the network.
	plane           int
	path            *topo.Path
	postedAt, entry sim.Time
}

// start seeds a zero cursor (a recycled one may keep its empty skipped
// buffer) for one send from tp's node to dst, entering no earlier than
// at. A zero MaxAttempts means one real attempt per wired plane.
func (st *sendState) start(tp *Transport, at sim.Time, dst, payloadBytes, tenant int,
	planes *[ni.LinksPerNode]PlaneCounters, met *netInstruments, rec *trace.Recorder) {
	st.maxAttempts = tp.cfg.MaxAttempts
	if st.maxAttempts <= 0 {
		st.maxAttempts = ni.LinksPerNode
	}
	st.tp, st.planes, st.met, st.rec = tp, planes, met, rec
	st.dst, st.payloadBytes, st.tenant = dst, payloadBytes, tenant
	st.at, st.crcLeft, st.pass = at, tp.cfg.CRCRetries, 1
}

// attemptAt is the sender's clock for the next attempt.
//
//pmlint:hotpath
func (st *sendState) attemptAt() sim.Time { return st.at + st.elapsed }

// next moves the cursor to the plane of the next real attempt, taking
// plane-down cache skips on the way. false means every option is spent
// and the caller reports failed().
//
// The plane-down cache never loses a message on its own: a send fails
// only after a real attempt on every wired plane, so planes pass 1
// skipped are probed for real in pass 2 before any retry (the cache is
// a latency optimisation, not an availability decision). Pass 3 keeps
// alternating the planes without hard evidence of death — congestion
// and death look alike from the sender — until the budget runs out or a
// sweep finds nothing left to try.
//
//pmlint:hotpath
func (st *sendState) next() (int, bool) {
	if st.again {
		st.again = false
		return st.plane, true
	}
	planes := [2]int{topo.NetworkA, topo.NetworkB}
	for st.attempts < st.maxAttempts {
		switch st.pass {
		case 1: // preferred order, plane-down cache skips
			if st.idx == len(planes) {
				st.pass, st.idx = 2, 0
				continue
			}
			plane := planes[st.idx]
			st.idx++
			if !st.skip(plane) {
				return plane, true
			}
		case 2: // probe the skipped planes before burning retries
			if st.idx == len(st.skipped) {
				st.pass, st.idx, st.progress = 3, 0, false
				continue
			}
			st.idx++
			return st.skipped[st.idx-1], true
		default: // alternate soft-failed planes
			if st.idx == len(planes) {
				if !st.progress {
					return 0, false // only hard-down or unwired planes remain
				}
				st.idx, st.progress = 0, false
				continue
			}
			plane := planes[st.idx]
			st.idx++
			if !st.hard[plane] {
				return plane, true
			}
		}
	}
	return 0, false
}

// skip reports whether pass 1 moves past plane without an attempt: the
// plane-down cache marks it dead beyond the sender's clock, so the
// driver pays only a cached status check instead of the full detection
// window (an unwired plane has nothing to skip).
//
//pmlint:hotpath
func (st *sendState) skip(plane int) bool {
	if pd := &st.tp.down[plane]; !pd.down || st.attemptAt() >= pd.reprobeAt {
		return false
	}
	if _, err := st.tp.Route(st.dst, plane); err != nil {
		return true
	}
	st.planes[plane].SkippedDown++
	st.skipped = append(st.skipped, plane)
	if st.rec.Enabled() {
		st.rec.InstantArg(trace.NodeTrack(st.tp.src), "failover", "plane-down-hit",
			st.attemptAt(), "plane "+planeName(plane))
	}
	st.elapsed += st.tp.cfg.PlaneDownCheck
	st.detect += st.tp.cfg.PlaneDownCheck
	return true
}

// begin opens a real attempt on plane at the sender's clock: st.path
// and st.entry are its route and network entry time. false means
// nothing entered the network — the plane is unwired (software knows
// at once, at no cost), or the send FIFO stayed wedged past the setup
// timeout and the driver abandoned it — and the caller asks next for
// another plane.
//
//pmlint:hotpath
func (st *sendState) begin(plane int) bool {
	attemptAt := st.attemptAt()
	path, err := st.tp.Route(st.dst, plane)
	if err != nil {
		return false
	}
	st.attempts++
	if st.pass == 3 {
		st.progress = true
	}
	pc := &st.planes[plane]
	pc.Attempts++
	entry := st.tp.net.nis[st.tp.src].Links[plane].ReadyAt(attemptAt)
	if entry > attemptAt {
		pc.Stalled++
	}
	st.plane, st.path, st.postedAt, st.entry = plane, path, attemptAt, entry
	if to := st.tp.cfg.SetupTimeout; to > 0 && entry > attemptAt+to {
		pc.lost(false)
		st.abandon(attemptAt+to, "fifo-stall")
		return false
	}
	return true
}

// lost closes the current attempt after a silent failure — a severed
// wire (hard evidence: the plane is not retried within this send) or a
// setup timeout — which the sender learns of at detected.
//
//pmlint:hotpath
func (st *sendState) lost(cut bool, detected sim.Time) {
	cause := "setup-timeout"
	if cut {
		st.hard[st.plane] = true
		cause = "link-down"
	}
	st.abandon(detected, cause)
}

// nack closes the current attempt on a CRC NACK received at detected.
// A NACK proves the plane carried the frame end to end — transient
// corruption, not a dead plane — so while the CRCRetries budget lasts
// the next attempt re-sends on the same plane; otherwise the plane is
// charged the failover. Either way the whole corrupt attempt, wire time
// included, is detection: the transfer bought no progress, only the
// NACK's evidence.
//
//pmlint:hotpath
func (st *sendState) nack(detected sim.Time) {
	if st.crcLeft > 0 && st.attempts < st.maxAttempts {
		st.advance(detected)
		st.crcLeft--
		st.planes[st.plane].CRCRetries++
		st.recordFailure(detected, "crc-retry")
		st.again = true
		return
	}
	st.planes[st.plane].FailedOver++
	st.abandon(detected, "crc-nack")
}

// abandon gives up on the current attempt's plane at detected: the
// plane enters the plane-down cache, and the sender's clock moves past
// the detection window and the backoff.
//
//pmlint:hotpath
func (st *sendState) abandon(detected sim.Time, cause string) {
	st.tp.markDown(st.plane, detected)
	st.recordFailure(detected, cause)
	st.advance(detected)
}

// advance moves the sender's clock to detected plus the retry backoff,
// charging the window since the attempt was posted to detection.
//
//pmlint:hotpath
func (st *sendState) advance(detected sim.Time) {
	backoff := st.tp.cfg.RetryBackoff
	st.elapsed = detected + backoff - st.at
	st.detect += detected - st.postedAt
	st.retry += backoff
}

// recordFailure records one failed attempt: its detection window (post
// to failure detection) into the metrics histogram and, when tracing, a
// span labelled with the cause ("fifo-stall", "link-down",
// "setup-timeout", "crc-nack", "crc-retry").
//
//pmlint:hotpath
func (st *sendState) recordFailure(detected sim.Time, cause string) {
	st.met.detection.ObserveTime(detected - st.postedAt)
	if st.rec.Enabled() {
		st.rec.SpanArg(trace.NodeTrack(st.tp.src), "failover", "attempt "+planeName(st.plane),
			st.postedAt, detected, cause)
	}
}

// markDown records a failed attempt on a plane: the driver treats the
// plane as dead until detectedAt + ReprobeInterval. A zero interval
// disables the cache.
func (t *Transport) markDown(plane int, detectedAt sim.Time) {
	if t.cfg.ReprobeInterval > 0 {
		t.down[plane] = planeDown{down: true, reprobeAt: detectedAt + t.cfg.ReprobeInterval}
	}
}

// delivered completes the protocol with the current attempt's intact
// transit: the plane leaves the plane-down cache, and the outcome is
// observed and returned.
//
//pmlint:hotpath
func (st *sendState) delivered(tr Transit) Delivery {
	st.tp.down[st.plane] = planeDown{}
	wire := st.tp.net.idealTransit(st.path, st.payloadBytes)
	d := Delivery{
		Transit:      tr,
		Plane:        st.plane,
		Attempts:     st.attempts,
		Retried:      st.attempts > 1 || len(st.skipped) > 0,
		SkippedDown:  len(st.skipped),
		PayloadBytes: st.payloadBytes,
		Sent:         st.at,
		Done:         tr.LastByte,
		Decomp: Decomp{
			Arb:    tr.LastByte - st.postedAt - wire,
			Wire:   wire,
			Detect: st.detect,
			Retry:  st.retry,
		},
	}
	st.observe(&d)
	return d
}

// failed completes the protocol with every option spent: the message is
// reported lost when the sender gives up, never silently dropped.
//
//pmlint:hotpath
func (st *sendState) failed() Delivery {
	if st.rec.Enabled() {
		st.rec.InstantArg(trace.NodeTrack(st.tp.src), "failover", "send-failed", st.attemptAt(),
			fmt.Sprintf("%d->%d after %d attempts", st.tp.src, st.dst, st.attempts)) //pmlint:allow hotpath trace-gated formatting on the all-planes-failed path
	}
	d := Delivery{
		Attempts: st.attempts, SkippedDown: len(st.skipped), Failed: true,
		PayloadBytes: st.payloadBytes, Sent: st.at, Done: st.attemptAt(),
		Decomp: Decomp{Detect: st.detect, Retry: st.retry},
	}
	st.observe(&d)
	return d
}

// observe tallies a completed send into the outcome counters and
// histograms, and a delivered one into its tenant's histograms.
//
//pmlint:hotpath
func (st *sendState) observe(d *Delivery) {
	mi := st.met
	mi.observeSend(d)
	if !d.Failed && st.tenant >= 0 && st.tenant < len(mi.tenantLat) {
		mi.tenantLat[st.tenant].ObserveTime(d.Latency())
		observeDecomp(&mi.tenantWait[st.tenant], d.Decomp)
	}
}
