// Transport: the one fault-aware send path every software layer uses.
//
// Before this layer existed, internal/comm, internal/mpl and
// internal/earth each hand-rolled their own sends over raw Network.Send
// on plane A — so no application benchmark could run under a fault
// campaign, and every layer repeated the route lookup per message. A
// Transport is a per-source handle over the network that owns:
//
//   - route lookup through its source's row of the topology's shared
//     route table (routes are a pure function of the immutable wiring,
//     so every network, transport and shard over one topology computes
//     each route once, and Reset leaves them alone);
//   - plane selection under the driver-level failover protocol of
//     failover.go;
//   - a per-plane "plane down" cache: after a failed attempt the driver
//     remembers the plane is dead and routes around it at a cheap
//     status-check cost instead of re-paying the full acknowledgment
//     timeout per message, reprobing the plane at a deterministic
//     interval (the cache is what bends the degradation curve from
//     "every message pays 12 µs" to "the first message pays 12 µs");
//   - advancing the optional background OS stream (osstream.go) so
//     failover retries contend with system-software traffic on plane B
//     instead of finding it idle.
//
// The layering rule is enforced by pmlint's `layering` analyzer: outside
// this package, nothing calls Network.Send directly without an audited
// //pmlint:allow directive.
package netsim

import (
	"fmt"

	"powermanna/internal/metrics"
	"powermanna/internal/ni"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
	"powermanna/internal/trace"
)

// planeDown is the per-plane entry of the driver's plane-down cache.
type planeDown struct {
	// down marks the plane as known-dead from the sender's viewpoint.
	down bool
	// reprobeAt is when the driver will next risk a real attempt on the
	// plane (detection time + FailoverConfig.ReprobeInterval).
	reprobeAt sim.Time
}

// Transport is one node's fault-aware handle over the network: the send
// path internal/comm, internal/mpl and internal/earth go through. Create
// one per source node with Network.Transport. A Transport is bound to
// its network's lifetime; Network.Reset clears its fault state (plane-
// down cache). Its routes live in the topology and outlive it.
type Transport struct {
	net *Network
	src int
	cfg FailoverConfig
	// routes is the source's row of the topology's route table.
	routes topo.RouteRow
	// down is the plane-down cache, one entry per link interface of the
	// node (one per network plane of the duplicated system).
	down [ni.LinksPerNode]planeDown
	// tenantLat, when labelled via SetTenant, additionally receives every
	// delivered send's latency under the tenant's histogram name.
	tenantLat *metrics.Histogram
	// tenantWait receives the delivered latency's decomposition under the
	// tenant's per-component histogram names (waitComponents order).
	tenantWait [4]*metrics.Histogram
}

// Transport returns a new fault-aware per-source send handle using the
// given failover configuration, registered with the network so Reset
// clears its plane-down cache.
func (n *Network) Transport(src int, cfg FailoverConfig) (*Transport, error) {
	if src < 0 || src >= n.topo.Nodes() {
		return nil, fmt.Errorf("netsim: transport source %d out of range", src)
	}
	t := &Transport{
		net:    n,
		src:    src,
		cfg:    cfg,
		routes: n.topo.RoutesFrom(src),
	}
	n.transports = append(n.transports, t)
	return t, nil
}

// MustTransport is Transport for callers that construct over a validated
// topology; it panics on an out-of-range source.
func (n *Network) MustTransport(src int, cfg FailoverConfig) *Transport {
	t, err := n.Transport(src, cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Src reports the node this transport sends from.
func (t *Transport) Src() int { return t.src }

// Config returns the failover configuration the transport applies.
func (t *Transport) Config() FailoverConfig { return t.cfg }

// SetTenant labels this transport's delivered sends: latencies
// additionally land in the tenant's own histogram
// (MetricSendLatencyTenantPrefix + name), resolved from the registry the
// network holds — call after Network.SetMetrics. An empty name, or
// metrics off, clears the label.
func (t *Transport) SetTenant(name string) {
	if name == "" || t.net.mreg == nil {
		t.tenantLat = nil
		t.tenantWait = [4]*metrics.Histogram{}
		return
	}
	t.tenantLat = t.net.mreg.TimeHistogram(MetricSendLatencyTenantPrefix+name, tenantLatencyBuckets())
	t.tenantWait = tenantWaitHistograms(t.net.mreg, name)
}

// PlaneDown reports whether the driver's plane-down cache currently
// marks the plane dead, and until when sends skip it.
func (t *Transport) PlaneDown(plane int) (down bool, reprobeAt sim.Time) {
	if plane < 0 || plane >= len(t.down) {
		return false, 0
	}
	return t.down[plane].down, t.down[plane].reprobeAt
}

// Route returns the route from the transport's source to dst on the
// given plane, from the topology's shared route table (see topo.Route:
// the path's slices are shared and read-only).
//
//pmlint:hotpath
func (t *Transport) Route(dst, plane int) (topo.Path, error) {
	return t.routes.Route(dst, plane)
}

// Send posts payloadBytes to dst under the failover protocol with the
// transport's configuration: plane A first, then plane B, with the
// plane-down cache short-circuiting attempts to a known-dead plane. See
// Network.SendReliable for the protocol's timing accounting; Send adds
// the cache on top.
//
//pmlint:hotpath
func (t *Transport) Send(at sim.Time, dst, payloadBytes int) (Delivery, error) {
	return t.sendWith(at, dst, payloadBytes, t.cfg)
}

// resetFaultState clears the plane-down cache (Network.Reset); routes
// depend only on the immutable topology and are not the transport's.
func (t *Transport) resetFaultState() {
	t.down = [ni.LinksPerNode]planeDown{}
}

// markDown records a failed attempt on a plane: the driver treats the
// plane as dead until detectedAt + ReprobeInterval. A zero interval
// disables the cache.
func (t *Transport) markDown(plane int, detectedAt sim.Time, cfg FailoverConfig) {
	if cfg.ReprobeInterval <= 0 || plane < 0 || plane >= len(t.down) {
		return
	}
	t.down[plane] = planeDown{down: true, reprobeAt: detectedAt + cfg.ReprobeInterval}
}

// sendWith runs the failover protocol and tallies the outcome into the
// network's metrics instruments (no-ops when no registry is attached).
//
//pmlint:hotpath
func (t *Transport) sendWith(at sim.Time, dst, payloadBytes int, cfg FailoverConfig) (Delivery, error) {
	d, err := t.sendProtocol(at, dst, payloadBytes, cfg)
	if err == nil {
		t.net.met.observeSend(d)
		if !d.Failed {
			t.tenantLat.ObserveTime(d.Latency())
			observeDecomp(&t.tenantWait, d.Decomp)
		}
	}
	return d, err
}

// sendProtocol is the shared failover protocol: the body of both
// Transport.Send and Network.SendReliable (which has no plane-down
// cache). All protocol costs — stall deferral, ack timeout, NACK return,
// backoff, plane-down status checks — land in the returned Delivery's
// times.
//
// The plane-down cache never loses a message on its own: a send is
// reported failed only after a real attempt on every wired plane, so if
// the first pass skipped cached-down planes without delivering, a second
// pass probes them for real (the cache is a latency optimisation, not an
// availability decision).
//
//pmlint:hotpath
func (t *Transport) sendProtocol(at sim.Time, dst, payloadBytes int, cfg FailoverConfig) (Delivery, error) {
	n := t.net
	if dst < 0 || dst >= n.topo.Nodes() {
		return Delivery{}, fmt.Errorf("netsim: node out of range (%d, %d)", t.src, dst) //pmlint:allow hotpath cold bad-argument path, never taken per message
	}
	if payloadBytes < 0 {
		return Delivery{}, fmt.Errorf("netsim: negative payload")
	}
	st := newSendState(at, cfg)
	// Pass 1, preferred order: plane A, then plane B, with the plane-down
	// cache short-circuiting planes the driver already knows are dead.
	for _, plane := range [2]int{topo.NetworkA, topo.NetworkB} {
		if st.attempts >= st.maxAttempts {
			break
		}
		if pd := &t.down[plane]; pd.down && cfg.ReprobeInterval > 0 && st.attemptAt() < pd.reprobeAt {
			if _, err := t.Route(dst, plane); err != nil {
				continue // not wired: nothing to skip
			}
			// Plane-down cache hit: the driver already knows this plane
			// is dead and pays only a cached status check, not the full
			// detection window.
			n.planes[plane].SkippedDown++
			st.skipped = append(st.skipped, plane)
			if n.rec.Enabled() {
				n.rec.InstantArg(trace.NodeTrack(t.src), "failover", "plane-down-hit",
					st.attemptAt(), "plane "+planeName(plane))
			}
			st.elapsed += cfg.PlaneDownCheck
			st.detect += cfg.PlaneDownCheck
			continue
		}
		d, final, err := t.tryPlane(plane, dst, payloadBytes, cfg, &st)
		if final {
			return d, err
		}
	}
	// Pass 2: nothing delivered yet, so probe the planes the cache
	// skipped before burning budget on retries.
	for _, plane := range st.skipped {
		if st.attempts >= st.maxAttempts {
			break
		}
		d, final, err := t.tryPlane(plane, dst, payloadBytes, cfg, &st)
		if final {
			return d, err
		}
	}
	// Pass 3: every wired plane soft-failed at least once. Congestion and
	// death are indistinguishable from the sender, so keep alternating
	// planes that lack hard evidence of death until the budget runs out.
	for st.attempts < st.maxAttempts {
		before := st.attempts
		for _, plane := range [2]int{topo.NetworkA, topo.NetworkB} {
			if st.hard[plane] || st.attempts >= st.maxAttempts {
				continue
			}
			d, final, err := t.tryPlane(plane, dst, payloadBytes, cfg, &st)
			if final {
				return d, err
			}
		}
		if st.attempts == before {
			break // only hard-down or unwired planes remain
		}
	}
	if n.rec.Enabled() {
		n.rec.InstantArg(trace.NodeTrack(t.src), "failover", "send-failed", st.attemptAt(),
			fmt.Sprintf("%d->%d after %d attempts", t.src, dst, st.attempts)) //pmlint:allow hotpath trace-gated formatting on the all-planes-failed path
	}
	return Delivery{Attempts: st.attempts, SkippedDown: len(st.skipped), Failed: true,
		PayloadBytes: payloadBytes, Sent: at, Done: st.attemptAt(),
		Decomp: Decomp{Detect: st.detect, Retry: st.retry}}, nil
}

// sendState threads one reliable send's accounting through its plane
// attempts: the sender-observed clock and the attempt/skip tallies.
type sendState struct {
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
}

// newSendState seeds one reliable send's accounting from its config:
// the resolved attempt budget (zero MaxAttempts means one real attempt
// per wired plane, the legacy shape) and the same-plane CRC re-send
// budget.
func newSendState(at sim.Time, cfg FailoverConfig) sendState {
	ma := cfg.MaxAttempts
	if ma <= 0 {
		ma = ni.LinksPerNode
	}
	return sendState{at: at, maxAttempts: ma, crcLeft: cfg.CRCRetries}
}

// attemptAt is the sender's clock for the next attempt.
//
//pmlint:hotpath
func (st *sendState) attemptAt() sim.Time { return st.at + st.elapsed }

// traceAttempt records one failed plane attempt: the detection window
// (entry to failure detection) into the metrics histogram, and — when
// tracing — a span labelled with the cause ("fifo-stall", "link-down",
// "setup-timeout", "crc-nack").
//
//pmlint:hotpath
func (t *Transport) traceAttempt(plane int, from, detected sim.Time, cause string) {
	t.net.met.detection.ObserveTime(detected - from)
	if !t.net.rec.Enabled() {
		return
	}
	t.net.rec.SpanArg(trace.NodeTrack(t.src), "failover", "attempt "+planeName(plane),
		from, detected, cause)
}

// tryPlane runs one real attempt on a plane. final reports that the
// protocol is over: delivery, or a non-protocol error. A false final
// means the attempt failed and the clock advanced past its detection
// window — the caller moves on to the next plane.
//
//pmlint:hotpath
func (t *Transport) tryPlane(plane, dst, payloadBytes int, cfg FailoverConfig, st *sendState) (Delivery, bool, error) {
	n := t.net
	// System-software traffic that accumulated up to this attempt's
	// entry time claims its plane-B circuits first, so a failover retry
	// contends with the OS stream instead of finding plane B idle
	// (Section 4: system software owns its own network).
	attemptAt := st.attemptAt()
	n.advanceOS(attemptAt)
	path, err := t.Route(dst, plane)
	if err != nil {
		// The plane is not wired at all (single-network topologies):
		// software knows immediately, no detection cost.
		return Delivery{}, false, nil
	}
	pc := &n.planes[plane]
	st.attempts++
	pc.Attempts++
	entry := n.nis[t.src].Links[plane].ReadyAt(attemptAt)
	if entry > attemptAt {
		pc.Stalled++
	}
	if cfg.SetupTimeout > 0 && entry > attemptAt+cfg.SetupTimeout {
		// The send FIFO never drained: abandon the plane without
		// entering the network.
		pc.SetupTimeouts++
		pc.FailedOver++
		t.markDown(plane, attemptAt+cfg.SetupTimeout, cfg)
		t.traceAttempt(plane, attemptAt, attemptAt+cfg.SetupTimeout, "fifo-stall")
		st.elapsed += cfg.SetupTimeout + cfg.RetryBackoff
		st.detect += cfg.SetupTimeout
		st.retry += cfg.RetryBackoff
		return Delivery{}, false, nil
	}
	tr, err := n.send(entry, path, payloadBytes, cfg.SetupTimeout, cfg.AckTimeout)
	if err != nil {
		var down *DownError
		if !errorsAs(err, &down) {
			return Delivery{}, true, err
		}
		cause := "setup-timeout"
		if down.Cut {
			pc.LinkDown++
			st.hard[plane] = true
			cause = "link-down"
		} else {
			pc.SetupTimeouts++
		}
		pc.FailedOver++
		// Silence on the wire: the sender learns only via the
		// acknowledgment timeout, wherever the fault sits.
		detected := entry + cfg.AckTimeout
		t.markDown(plane, detected, cfg)
		t.traceAttempt(plane, attemptAt, detected, cause)
		st.elapsed = detected + cfg.RetryBackoff - st.at
		st.detect += detected - attemptAt
		st.retry += cfg.RetryBackoff
		return Delivery{}, false, nil
	}
	if tr.Corrupted {
		n.nis[dst].Links[plane].RecordCRCError()
		pc.CRCErrors++
		detected := tr.LastByte + cfg.NackLatency
		st.elapsed = detected + cfg.RetryBackoff - st.at
		// The whole corrupt attempt — wire time included — is detection:
		// the transfer bought no progress, only the NACK's evidence.
		st.detect += detected - attemptAt
		st.retry += cfg.RetryBackoff
		if st.crcLeft > 0 && st.attempts < st.maxAttempts {
			// A NACK proves the plane carried the frame end to end —
			// transient corruption, not a dead plane. Spend the bounded
			// same-plane budget before charging the failover path.
			st.crcLeft--
			pc.CRCRetries++
			t.traceAttempt(plane, attemptAt, detected, "crc-retry")
			return t.tryPlane(plane, dst, payloadBytes, cfg, st)
		}
		pc.FailedOver++
		t.markDown(plane, detected, cfg)
		t.traceAttempt(plane, attemptAt, detected, "crc-nack")
		return Delivery{}, false, nil
	}
	n.nis[dst].Links[plane].RecordFrame()
	pc.Delivered++
	t.down[plane] = planeDown{}
	wire := n.idealTransit(path, payloadBytes)
	return Delivery{
		Transit:      tr,
		Plane:        plane,
		Attempts:     st.attempts,
		Retried:      st.attempts > 1 || len(st.skipped) > 0,
		SkippedDown:  len(st.skipped),
		PayloadBytes: payloadBytes,
		Sent:         st.at,
		Done:         tr.LastByte,
		Decomp: Decomp{
			Arb:    tr.LastByte - attemptAt - wire,
			Wire:   wire,
			Detect: st.detect,
			Retry:  st.retry,
		},
	}, true, nil
}
