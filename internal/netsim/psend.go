// psend: the split-phase executor of the driver-level failover protocol.
// One psend carries one reliable send's protocol cursor (protocol.go)
// and runs each real attempt the cursor opens as split-phase legs of the
// one header walk (Network.walk): the source half walks on the source
// shard, a cross-group attempt posts its remainder to the destination's
// half, and the verdict resumes the cursor in a later event. The
// decisions and timing are the cursor's, shared with Transport.Send;
// psend owns only the legs' scheduling, their open holds and the split
// posting, so attempts from many nodes interleave deterministically
// across psim shards instead of serialising in program order.
package netsim

import (
	"fmt"

	"powermanna/internal/sim"
)

// psend is one in-flight reliable send's split-phase executor. It lives
// on the source node's shard, taken from and recycled to that shard's
// free list; only finalize verdicts (plain data through psim mailboxes)
// reach it from other shards.
type psend struct {
	leg     pleg       // the source walk attempt; leg.p == this
	rl      *remoteLeg // the split attempt awaiting its verdict
	pn      *PartNetwork
	ps      *partShard
	payload any
	// st is the protocol cursor; its current attempt is the one walking.
	st     sendState
	msgID  uint64
	onDone func(Delivery)

	// The current attempt's first destination-owned hop and on-wire
	// length.
	curSplit     int
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
	p.pn, p.ps, p.payload = pn, ps, payload
	p.msgID = uint64(src)<<32 | uint64(pn.msgSeq[src])
	p.onDone = onDone
	p.leg = pleg{msgID: p.msgID, p: p}
	p.st.start(&pn.tps[src], at, dst, payloadBytes, tenant, &ps.planes, &ps.met, ps.rec)
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

// step resumes the protocol cursor: it returns once the next attempt's
// walk is buffered — its completion re-enters step — or once the send
// has failed.
func (p *psend) step() {
	for {
		plane, ok := p.st.next()
		if !ok {
			p.done(p.st.failed())
			return
		}
		if !p.st.begin(plane) {
			continue
		}
		p.curSplit = p.pn.grain.Boundary(p.st.path)
		p.curWireBytes = wireBytesFor(p.st.path, p.st.payloadBytes)
		p.ps.buffer(&p.leg)
		return
	}
}

// processSrc runs the source half of the current attempt's walk when
// its canonical drain fires.
func (ps *partShard) processSrc(l *pleg) {
	p := l.p
	st := &p.st
	res := p.pn.net.walk(l, ps.open, st.path, p.curSplit, false, st.entry, p.curWireBytes, st.tp.cfg.SetupTimeout, p.srcWires, p.srcHops)
	p.srcWires, p.srcHops = res.wires, res.hops
	switch res.outcome {
	case walkParked:
		return
	case walkFailed:
		p.srcFailed(res)
	default:
		if p.curSplit < len(st.path.Hops) {
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
	st := &p.st
	p.ps.planes[st.plane].lost(res.cut)
	detected := st.entry + st.tp.cfg.AckTimeout
	if now := p.ps.sh.Now(); detected < now {
		// The attempt parked behind an open circuit past its own ack
		// timeout: the failure is established only once the blocking
		// circuit's fate is known (the wake time — itself a pure function
		// of the model, so the floor is shard-count independent). Without
		// it the retry's model clock would lag the shard's event clock and
		// its split legs would post into other shards' pasts.
		detected = now
	}
	p.pn.net.hold(res.wires, res.hops, detected, p.ps, st.plane)
	st.lost(res.cut, detected)
	p.step()
}

// srcSplit hands a cross-group attempt to the destination's half: the
// source segment goes open-held, and the remote leg travels to the
// boundary crossbar's shard as plain data at the header's arrival time
// there. That is at least a route setup at the source leaf plus the
// leaf-to-central wire past the drain that walked it, on a re-walk
// after an open hold too — at or beyond the engine's lookahead by
// construction (lookaheadFor). The leg carries only the source wires
// with a fault window for the destination's CRC verdict: the windows
// are fixed for the run, so a healthy wire cannot change the verdict,
// and leaving it out keeps the destination off the source shard's
// wires.
func (p *psend) srcSplit(res walkRes) {
	ps, st := p.ps, &p.st
	cfg := &st.tp.cfg
	ps.holdOpen(p)
	rl := ps.freeLegs.get()
	*rl = remoteLeg{
		msgID: p.msgID, src: st.tp.src, dst: st.dst, plane: st.plane,
		path: st.path, split: p.curSplit,
		head: res.head, entry: st.entry,
		wireBytes:    p.curWireBytes,
		setupTimeout: cfg.SetupTimeout, ackTimeout: cfg.AckTimeout,
		nackLatency: cfg.NackLatency,
		srcChecks:   rl.srcChecks[:0],
		payload:     p.payload,
		p:           p,
	}
	for _, c := range res.wires {
		if c.w.Faulted() {
			rl.srcChecks = append(rl.srcChecks, c)
		}
	}
	p.rl = rl
	dstShard := p.pn.part.NodeShard(st.dst)
	if dstShard == ps.id {
		ps.sh.AtPost(res.head, ps, rl)
		return
	}
	p.pn.eng.PostPayload(ps.id, dstShard, res.head, p.pn.shards[dstShard], rl)
}

// srcComplete finishes an intra-group attempt whose whole circuit lives
// on one shard: claim it, render the CRC verdict, and either deliver or
// hand the NACK to the cursor — what send does for a whole-path walk,
// under canonical-drain ordering.
func (p *psend) srcComplete(res walkRes) {
	ps, st, n := p.ps, &p.st, p.pn.net
	bad := corrupted(res.wires, res.last)
	n.hold(res.wires, res.hops, res.last, ps, st.plane)
	recordMsg(ps.rec, false, st.path, st.payloadBytes, st.entry, res.head, res.last, bad)
	arrived(&ps.planes, st.plane, bad)
	if bad {
		st.nack(res.last + st.tp.cfg.NackLatency)
		p.step()
		return
	}
	ps.scheduleArrival(st.tp.src, st.dst, p.payload, res.first, res.last)
	p.done(st.delivered(Transit{
		SetupDone: res.head, FirstByte: res.first, LastByte: res.last,
		WireBytes: p.curWireBytes,
	}))
}

// finish applies the destination's verdict on the source shard: claim
// the source half of the circuit up to the verdict, wake its parked
// walkers, and resume the cursor. The destination counted what its walk
// discovered (CRC errors, deliveries, silent failures); the retry-or-
// failover decision on a NACK is the sender's, since only this shard
// holds the send's budget.
func (p *psend) finish(fm *finalizeMsg) {
	ps, st := p.ps, &p.st
	until := fm.last
	if fm.kind == finCut || fm.kind == finTimeout {
		until = fm.detected // the suffix never formed
	}
	p.pn.net.hold(p.srcWires, p.srcHops, until, ps, st.plane)
	ps.releaseOpen(p.openKeys)
	switch fm.kind {
	case finOK:
		recordMsg(ps.rec, false, st.path, st.payloadBytes, st.entry, fm.setupDone, fm.last, false)
		p.done(st.delivered(Transit{
			SetupDone: fm.setupDone, FirstByte: fm.firstByte, LastByte: fm.last,
			WireBytes: p.curWireBytes,
		}))
		return
	case finCRC:
		// The circuit completed and the body crossed it — the claims run
		// to the last byte — but the destination NACKed the frame.
		recordMsg(ps.rec, false, st.path, st.payloadBytes, st.entry, fm.setupDone, fm.last, true)
		st.nack(fm.detected)
	default:
		st.lost(fm.kind == finCut, fm.detected)
	}
	p.step()
}
