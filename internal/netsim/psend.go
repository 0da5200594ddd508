// psend: the asynchronous, shard-resident form of the driver-level
// failover protocol (Transport.sendProtocol). One psend drives one
// reliable send through the same decision sequence as the synchronous
// protocol — preferred plane order with plane-down cache skips, a probe
// pass over skipped planes, then alternation until the attempt budget
// runs out — but each real attempt is a split-phase walk through the
// partitioned network instead of a synchronous Network.send call. The
// timing formulas (entry stalls, setup timeouts, ack-timeout detection,
// NACK return, backoff) are identical; only the execution is event-
// driven, so attempts from many nodes interleave deterministically
// across psim shards instead of serialising in program order.
package netsim

import (
	"fmt"

	"powermanna/internal/ni"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
	"powermanna/internal/trace"
)

// psend is one in-flight reliable send's protocol driver. It lives on
// the source node's shard, taken from and recycled to that shard's free
// list; only finalize verdicts (plain data through psim mailboxes)
// reach it from other shards.
type psend struct {
	leg          pleg       // the source walk attempt; leg.p == this
	rl           *remoteLeg // the split attempt awaiting its verdict
	pn           *PartNetwork
	ps           *partShard
	tp           *Transport
	src, dst     int
	payloadBytes int
	payload      any
	cfg          FailoverConfig
	st           sendState
	msgID        uint64
	// tenant indexes the shard's per-tenant latency histograms
	// (SetTenants); -1 on unlabelled sends.
	tenant int
	onDone func(Delivery)

	// Protocol cursor: which pass and plane the driver will try next.
	phase         int
	idx           int
	pass3Progress bool

	// Current attempt, valid while a walk or verdict is pending.
	curPlane     int
	curPath      topo.Path
	curSplit     int
	curEntry     sim.Time
	curAttemptAt sim.Time
	curWireBytes int
	// Source-half claims of the current attempt — held open until the
	// verdict on a split attempt — and their open-hold keys. The buffers
	// survive recycling.
	openKeys []resKey
	srcWires []partWireClaim
	srcHops  []partHopClaim
}

// SendAsync runs the failover protocol for one message from src to dst,
// entering the network no earlier than at (clamped to the source
// shard's clock — a cross-shard send cannot start in its shard's past).
// It must be called from an event on src's shard. onDone receives the
// outcome — delivered or Failed, never an error — inside the source-
// shard event where the outcome became known; the delivered payload
// reaches the destination through the OnDeliver hook at its arrival
// time. The returned error covers only malformed arguments.
func (pn *PartNetwork) SendAsync(src, dst, payloadBytes int, payload any, at sim.Time, onDone func(Delivery)) error {
	return pn.sendAsync(-1, src, dst, payloadBytes, payload, at, onDone)
}

// SendAsyncTenant is SendAsync with a tenant label: the delivered
// latency additionally lands in the tenant's labelled histogram
// (SetTenants declares the labels; the index is into that slice).
// Everything else — protocol, timing, determinism — is identical.
func (pn *PartNetwork) SendAsyncTenant(tenant, src, dst, payloadBytes int, payload any, at sim.Time, onDone func(Delivery)) error {
	return pn.sendAsync(tenant, src, dst, payloadBytes, payload, at, onDone)
}

func (pn *PartNetwork) sendAsync(tenant, src, dst, payloadBytes int, payload any, at sim.Time, onDone func(Delivery)) error {
	nodes := pn.net.topo.Nodes()
	if src < 0 || src >= nodes || dst < 0 || dst >= nodes {
		return fmt.Errorf("netsim: node out of range (%d, %d)", src, dst)
	}
	if src == dst {
		return fmt.Errorf("netsim: partitioned self-send on node %d", src)
	}
	if payloadBytes < 0 {
		return fmt.Errorf("netsim: negative payload")
	}
	ps := pn.shards[pn.part.NodeShard(src)]
	if t := ps.sh.Now(); t > at {
		at = t
	}
	pn.msgSeq[src]++
	p := ps.freeSends.get()
	p.pn, p.ps, p.tp = pn, ps, pn.tps[src]
	p.src, p.dst = src, dst
	p.payloadBytes, p.payload = payloadBytes, payload
	p.cfg = p.tp.cfg
	p.msgID = uint64(src)<<32 | uint64(pn.msgSeq[src])
	p.tenant, p.onDone = tenant, onDone
	p.phase = 1
	p.leg = pleg{msgID: p.msgID, p: p}
	skipped := p.st.skipped
	p.st = newSendState(at, p.cfg)
	p.st.skipped = skipped
	p.step()
	return nil
}

// done hands the outcome to the sender and recycles the psend: nothing
// may touch p once done returns.
func (p *psend) done(d Delivery) {
	onDone, ps := p.onDone, p.ps
	onDone(d)
	*p = psend{
		srcWires: p.srcWires[:0], srcHops: p.srcHops[:0], openKeys: p.openKeys[:0],
		st: sendState{skipped: p.st.skipped[:0]},
	}
	ps.freeSends.put(p)
}

// step advances the protocol cursor to the next attempt (or the final
// failure), mirroring sendProtocol's three passes. It returns when an
// attempt's walk is buffered — its completion re-enters step — or when
// the protocol is over.
func (p *psend) step() {
	planes := [2]int{topo.NetworkA, topo.NetworkB}
	for {
		switch p.phase {
		case 1: // preferred order, plane-down cache skips
			if p.idx >= len(planes) {
				p.phase, p.idx = 2, 0
				continue
			}
			plane := planes[p.idx]
			p.idx++
			if p.st.attempts >= p.st.maxAttempts {
				p.phase = 4
				continue
			}
			if pd := &p.tp.down[plane]; pd.down && p.cfg.ReprobeInterval > 0 && p.st.attemptAt() < pd.reprobeAt {
				if _, err := p.tp.Route(p.dst, plane); err != nil {
					continue // not wired: nothing to skip
				}
				p.ps.planes[plane].SkippedDown++
				p.st.skipped = append(p.st.skipped, plane)
				if p.ps.rec.Enabled() {
					p.ps.rec.InstantArg(trace.NodeTrack(p.src), "failover", "plane-down-hit",
						p.st.attemptAt(), "plane "+planeName(plane))
				}
				p.st.elapsed += p.cfg.PlaneDownCheck
				p.st.detect += p.cfg.PlaneDownCheck
				continue
			}
			if p.launch(plane) {
				return
			}
		case 2: // probe the skipped planes before burning retries
			if p.idx >= len(p.st.skipped) {
				p.phase, p.idx, p.pass3Progress = 3, 0, false
				continue
			}
			plane := p.st.skipped[p.idx]
			p.idx++
			if p.st.attempts >= p.st.maxAttempts {
				p.phase = 4
				continue
			}
			if p.launch(plane) {
				return
			}
		case 3: // alternate soft-failed planes until the budget runs out
			if p.st.attempts >= p.st.maxAttempts {
				p.phase = 4
				continue
			}
			if p.idx >= len(planes) {
				if !p.pass3Progress {
					p.phase = 4
					continue
				}
				p.idx, p.pass3Progress = 0, false
				continue
			}
			plane := planes[p.idx]
			p.idx++
			if p.st.hard[plane] {
				continue
			}
			if p.launch(plane) {
				return
			}
		default: // exhausted: every option failed
			if p.ps.rec.Enabled() {
				p.ps.rec.InstantArg(trace.NodeTrack(p.src), "failover", "send-failed", p.st.attemptAt(),
					fmt.Sprintf("%d->%d after %d attempts", p.src, p.dst, p.st.attempts))
			}
			d := Delivery{
				Attempts: p.st.attempts, SkippedDown: len(p.st.skipped),
				Failed: true, PayloadBytes: p.payloadBytes,
				Sent: p.st.at, Done: p.st.attemptAt(),
				Decomp: Decomp{Detect: p.st.detect, Retry: p.st.retry},
			}
			p.ps.met.observeSend(d)
			p.done(d)
			return
		}
	}
}

// launch starts one real attempt on a plane. It returns true when the
// attempt's walk is buffered (the protocol resumes from its completion
// events) and false when the protocol should move on now: the plane is
// unwired, or the send FIFO never drained and the attempt was abandoned
// before entering the network.
func (p *psend) launch(plane int) bool {
	attemptAt := p.st.attemptAt()
	path, err := p.tp.Route(p.dst, plane)
	if err != nil {
		return false
	}
	pc := &p.ps.planes[plane]
	p.st.attempts++
	if p.phase == 3 {
		p.pass3Progress = true
	}
	pc.Attempts++
	entry := p.pn.net.nis[p.src].Links[plane].ReadyAt(attemptAt)
	if entry > attemptAt {
		pc.Stalled++
	}
	if p.cfg.SetupTimeout > 0 && entry > attemptAt+p.cfg.SetupTimeout {
		pc.SetupTimeouts++
		pc.FailedOver++
		p.tp.markDown(plane, attemptAt+p.cfg.SetupTimeout, p.cfg)
		p.traceAttempt(plane, attemptAt, attemptAt+p.cfg.SetupTimeout, "fifo-stall")
		p.st.elapsed += p.cfg.SetupTimeout + p.cfg.RetryBackoff
		p.st.detect += p.cfg.SetupTimeout
		p.st.retry += p.cfg.RetryBackoff
		return false
	}
	p.ps.sent++
	p.curPlane, p.curPath = plane, path
	p.curSplit = p.pn.grain.Boundary(path)
	p.curEntry, p.curAttemptAt = entry, attemptAt
	p.curWireBytes = wireBytesFor(path, p.payloadBytes)
	p.ps.buffer(&p.leg)
	return true
}

// processSrc runs the source half of the current attempt's walk when
// its canonical drain fires.
func (ps *partShard) processSrc(l *pleg) {
	p := l.p
	res := ps.walk(l, p.curPath, p.curSplit, false, p.curEntry, p.curWireBytes, p.cfg.SetupTimeout, p.srcWires, p.srcHops)
	p.srcWires, p.srcHops = res.wires, res.hops
	switch res.outcome {
	case walkParked:
		return
	case walkFailed:
		p.srcFailed(res)
	default:
		if p.curSplit < len(p.curPath.Hops) {
			p.srcSplit(res)
		} else {
			p.srcComplete(res)
		}
	}
}

// srcFailed handles a failure discovered on the source half: a severed
// wire or a setup timeout before the boundary. The sender learns only
// through the ack timeout; the partial circuit the header built holds
// until that teardown — the contention a failed wormhole really causes.
func (p *psend) srcFailed(res walkRes) {
	pc := &p.ps.planes[p.curPlane]
	cause := "setup-timeout"
	if res.cut {
		pc.LinkDown++
		p.st.hard[p.curPlane] = true
		cause = "link-down"
	} else {
		pc.SetupTimeouts++
	}
	pc.FailedOver++
	detected := p.curEntry + p.cfg.AckTimeout
	if now := p.ps.sh.Now(); detected < now {
		// The attempt parked behind an open circuit past its own ack
		// timeout: the failure is established only once the blocking
		// circuit's fate is known (the wake time — itself a pure function
		// of the model, so the floor is shard-count independent). Without
		// it the retry's model clock would lag the shard's event clock and
		// its split legs would post into other shards' pasts.
		detected = now
	}
	p.ps.claimPartial(res.wires, res.hops, detected, p.curPlane)
	p.tp.markDown(p.curPlane, detected, p.cfg)
	p.traceAttempt(p.curPlane, p.curAttemptAt, detected, cause)
	p.st.elapsed = detected + p.cfg.RetryBackoff - p.st.at
	p.st.detect += detected - p.curAttemptAt
	p.st.retry += p.cfg.RetryBackoff
	p.step()
}

// srcSplit hands a cross-group attempt to the destination's half: the
// source segment goes open-held, and the remote leg travels to the
// boundary crossbar's shard as plain data at the header's arrival time
// there (at least a route setup plus a wire crossing past the walk —
// beyond the engine's lookahead by construction).
func (p *psend) srcSplit(res walkRes) {
	ps := p.ps
	ps.holdOpen(p)
	rl := ps.freeLegs.get()
	*rl = remoteLeg{
		msgID: p.msgID, src: p.src, dst: p.dst, plane: p.curPlane,
		path: p.curPath, split: p.curSplit,
		head: res.head, entry: p.curEntry,
		wireBytes: p.curWireBytes, payloadBytes: p.payloadBytes,
		setupTimeout: p.cfg.SetupTimeout, ackTimeout: p.cfg.AckTimeout,
		nackLatency: p.cfg.NackLatency,
		srcChecks:   append(rl.srcChecks[:0], res.wires...),
		payload:     p.payload,
		p:           p,
	}
	p.rl = rl
	dstShard := p.pn.part.NodeShard(p.dst)
	if dstShard == ps.id {
		ps.sh.AtPost(res.head, ps, rl)
		return
	}
	p.pn.eng.PostPayload(ps.id, dstShard, res.head, p.pn.shards[dstShard], rl)
}

// srcComplete finishes an intra-group attempt whose whole circuit lives
// on one shard: claim it, render the CRC verdict, and either deliver or
// retry — the legacy path's semantics, under canonical-drain ordering.
func (p *psend) srcComplete(res walkRes) {
	ps := p.ps
	bad := corrupted(res.wires, res.last)
	ps.claimWires(res.wires, res.last)
	ps.claimHops(res.hops, res.last, p.curPlane)
	p.recordMsgSpans(p.curEntry, res.head, res.last, bad)
	lif := p.pn.net.nis[p.dst].Links[p.curPlane]
	pc := &ps.planes[p.curPlane]
	if bad {
		lif.RecordCRCError()
		pc.CRCErrors++
		detected := res.last + p.cfg.NackLatency
		p.st.elapsed = detected + p.cfg.RetryBackoff - p.st.at
		// The whole corrupt attempt counts as detection (see tryPlane).
		p.st.detect += detected - p.curAttemptAt
		p.st.retry += p.cfg.RetryBackoff
		if p.retryCRC(detected) {
			return
		}
		pc.FailedOver++
		p.tp.markDown(p.curPlane, detected, p.cfg)
		p.traceAttempt(p.curPlane, p.curAttemptAt, detected, "crc-nack")
		p.step()
		return
	}
	lif.RecordFrame()
	pc.Delivered++
	ps.scheduleArrival(p.src, p.dst, p.payload, res.first, res.last)
	p.deliverOutcome(Transit{
		SetupDone: res.head, FirstByte: res.first, LastByte: res.last,
		WireBytes: p.curWireBytes,
	}, res.last)
}

// finish applies the destination's verdict on the source shard.
func (p *psend) finish(fm *finalizeMsg) {
	ps := p.ps
	switch fm.kind {
	case finOK:
		ps.claimWires(p.srcWires, fm.last)
		ps.claimHops(p.srcHops, fm.last, p.curPlane)
		ps.releaseOpen(p.openKeys)
		p.recordMsgSpans(p.curEntry, fm.setupDone, fm.last, false)
		p.deliverOutcome(Transit{
			SetupDone: fm.setupDone, FirstByte: fm.firstByte, LastByte: fm.last,
			WireBytes: p.curWireBytes,
		}, fm.last)
	case finCRC:
		// The circuit completed and the body crossed it — the claims run
		// to the last byte — but the destination NACKed the frame. The
		// retry-or-failover decision is the sender's: only this shard
		// holds the send's budget, so the destination counted the CRC
		// error and the failed-over/retried split is charged here.
		ps.claimWires(p.srcWires, fm.last)
		ps.claimHops(p.srcHops, fm.last, p.curPlane)
		ps.releaseOpen(p.openKeys)
		p.recordMsgSpans(p.curEntry, fm.setupDone, fm.last, true)
		p.st.elapsed = fm.detected + p.cfg.RetryBackoff - p.st.at
		p.st.detect += fm.detected - p.curAttemptAt
		p.st.retry += p.cfg.RetryBackoff
		if p.retryCRC(fm.detected) {
			return
		}
		ps.planes[p.curPlane].FailedOver++
		p.tp.markDown(p.curPlane, fm.detected, p.cfg)
		p.traceAttempt(p.curPlane, p.curAttemptAt, fm.detected, "crc-nack")
		p.step()
	default: // finCut, finTimeout: the suffix never formed
		ps.claimWires(p.srcWires, fm.detected)
		ps.claimHops(p.srcHops, fm.detected, p.curPlane)
		ps.releaseOpen(p.openKeys)
		cause := "setup-timeout"
		if fm.kind == finCut {
			p.st.hard[p.curPlane] = true
			cause = "link-down"
		}
		p.tp.markDown(p.curPlane, fm.detected, p.cfg)
		p.traceAttempt(p.curPlane, p.curAttemptAt, fm.detected, cause)
		p.st.elapsed = fm.detected + p.cfg.RetryBackoff - p.st.at
		p.st.detect += fm.detected - p.curAttemptAt
		p.st.retry += p.cfg.RetryBackoff
		p.step()
	}
}

// retryCRC spends one same-plane re-send from the CRCRetries budget on
// a corrupt verdict, mirroring Transport.tryPlane's branch: the caller
// has already advanced the sender clock (st.elapsed) past the NACK
// return and backoff. It reports whether a retry was launched or the
// protocol resumed — false means the budget is spent and the caller
// charges the failover path.
func (p *psend) retryCRC(detected sim.Time) bool {
	if p.st.crcLeft <= 0 || p.st.attempts >= p.st.maxAttempts {
		return false
	}
	p.st.crcLeft--
	p.ps.planes[p.curPlane].CRCRetries++
	p.traceAttempt(p.curPlane, p.curAttemptAt, detected, "crc-retry")
	if !p.launch(p.curPlane) {
		p.step()
	}
	return true
}

// deliverOutcome completes the protocol with a successful delivery.
func (p *psend) deliverOutcome(tr Transit, done sim.Time) {
	p.tp.down[p.curPlane] = planeDown{}
	wire := p.pn.net.idealTransit(p.curPath, p.payloadBytes)
	d := Delivery{
		Transit: tr, Plane: p.curPlane,
		Attempts:     p.st.attempts,
		Retried:      p.st.attempts > 1 || len(p.st.skipped) > 0,
		SkippedDown:  len(p.st.skipped),
		PayloadBytes: p.payloadBytes,
		Sent:         p.st.at, Done: done,
		Decomp: Decomp{
			Arb:    done - p.curAttemptAt - wire,
			Wire:   wire,
			Detect: p.st.detect,
			Retry:  p.st.retry,
		},
	}
	p.ps.met.observeSend(d)
	if p.tenant >= 0 && p.tenant < len(p.ps.met.tenantLat) {
		p.ps.met.tenantLat[p.tenant].ObserveTime(d.Latency())
		observeDecomp(&p.ps.met.tenantWait[p.tenant], d.Decomp)
	}
	p.done(d)
}

// recordMsgSpans records the per-message spans the legacy send path
// records for every completed circuit: the message envelope, the setup
// walk and the body stream, plus the CRC-corrupt marker.
func (p *psend) recordMsgSpans(entry, setupDone, last sim.Time, bad bool) {
	rec := p.ps.rec
	if !rec.Enabled() {
		return
	}
	track := trace.NodeTrack(p.src)
	rec.SpanArg(track, "netsim", "msg", entry, last,
		fmt.Sprintf("%d->%d plane %s, %dB", p.src, p.dst, planeName(p.curPlane), p.payloadBytes))
	rec.Span(track, "netsim", "setup", entry, setupDone)
	rec.Span(track, "netsim", "stream", setupDone, last)
	if bad {
		rec.Instant(track, "netsim", "crc-corrupt", last)
	}
}

// traceAttempt mirrors Transport.traceAttempt into the shard's own
// instruments: the detection window histogram and the failover span.
func (p *psend) traceAttempt(plane int, from, detected sim.Time, cause string) {
	p.ps.met.detection.ObserveTime(detected - from)
	if p.ps.rec.Enabled() {
		p.ps.rec.SpanArg(trace.NodeTrack(p.src), "failover", "attempt "+planeName(plane),
			from, detected, cause)
	}
}

// wireBytesFor is the on-wire length of a payload along a path.
func wireBytesFor(path topo.Path, payloadBytes int) int {
	return ni.WireBytes(len(path.RouteBytes), payloadBytes)
}
