// Transport: the one fault-aware send path every software layer uses.
// A Transport is a per-source handle over the network that owns:
//
//   - route lookup through its source's row of the topology's shared
//     route table (routes are a pure function of the immutable wiring,
//     so every network, transport and shard over one topology computes
//     each route once, and Reset leaves them alone);
//   - plane selection under the driver-level failover protocol of
//     failover.go, run by the protocol cursor of protocol.go;
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
	"slices"

	"powermanna/internal/ni"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
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
// one per source node with Network.Transport, or one for every node at
// once with Network.Transports. A Transport is bound to
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
	// tenant indexes the network's tenant labels (SetTenant); -1 when
	// unlabelled.
	tenant int
}

// Transport returns a new fault-aware per-source send handle using the
// given failover configuration, registered with the network so Reset
// clears its plane-down cache.
func (n *Network) Transport(src int, cfg FailoverConfig) (*Transport, error) {
	if src < 0 || src >= n.topo.Nodes() {
		return nil, fmt.Errorf("netsim: transport source %d out of range", src)
	}
	return &n.newTransports(src, 1, cfg)[0], nil
}

// Transports returns one fault-aware send handle per node, indexed by
// source, all with the given failover configuration. They come from
// one slab, registered with the network like Transport's handles.
func (n *Network) Transports(cfg FailoverConfig) []Transport {
	return n.newTransports(0, n.topo.Nodes(), cfg)
}

// newTransports carves the transports of sources first to first+k-1
// from one slab and registers it.
func (n *Network) newTransports(first, k int, cfg FailoverConfig) []Transport {
	ts := make([]Transport, k)
	for i := range ts {
		src := first + i
		ts[i] = Transport{net: n, src: src, cfg: cfg, routes: n.topo.RoutesFrom(src), tenant: -1}
	}
	n.transports = append(n.transports, ts)
	return ts
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

// SetTenant labels this transport's delivered sends: latencies and
// their decomposition additionally land in the tenant's own histograms
// (MetricSendLatencyTenantPrefix + name and the per-tenant wait
// histograms) whenever the network has a registry attached; call order
// with Network.SetMetrics does not matter. An empty name clears the
// label.
func (t *Transport) SetTenant(name string) {
	if name == "" {
		t.tenant = -1
		return
	}
	n := t.net
	t.tenant = slices.Index(n.tenants, name)
	if t.tenant < 0 {
		t.tenant = len(n.tenants)
		n.tenants = append(n.tenants, name)
		n.met.setTenants(n.mreg, n.tenants)
	}
}

// Route returns the route from the transport's source to dst on the
// given plane, by reference into the topology's shared route table (see
// topo.RouteRow.Route): the Path is shared by every transport, network
// and shard over the topology and must be treated as read-only, its
// slices included. It is nil whenever the error is not.
//
//pmlint:hotpath
func (t *Transport) Route(dst, plane int) (*topo.Path, error) {
	return t.routes.Route(dst, plane)
}

// Send posts payloadBytes to dst under the failover protocol with the
// transport's configuration: plane A first (applications own plane A,
// Section 4), then plane B on timeout or NACK, with the plane-down cache
// short-circuiting attempts to a known-dead plane. All protocol costs —
// stall deferral, ack timeout, NACK return, backoff, plane-down status
// checks — land in the returned Delivery's times. A message failing on
// both planes returns with Failed set (not an error: degraded operation
// is a modelled outcome, and the campaign tables count it).
//
// Send is the synchronous executor of the protocol cursor (protocol.go):
// each real attempt is one whole-path walk (Network.send), whose partial
// circuit on a failure holds until the ack-timeout teardown.
//
//pmlint:hotpath
func (t *Transport) Send(at sim.Time, dst, payloadBytes int) (Delivery, error) {
	n := t.net
	if dst < 0 || dst >= n.topo.Nodes() {
		return Delivery{}, fmt.Errorf("netsim: node out of range (%d, %d)", t.src, dst) //pmlint:allow hotpath cold bad-argument path, never taken per message
	}
	if payloadBytes < 0 {
		return Delivery{}, fmt.Errorf("netsim: negative payload")
	}
	var st sendState
	st.start(t, at, dst, payloadBytes, t.tenant, &n.planes, &n.met, n.rec)
	for {
		plane, ok := st.next()
		if !ok {
			return st.failed(), nil
		}
		// System-software traffic that accumulated up to this attempt's
		// entry time claims its plane-B circuits first, so a failover
		// retry contends with the OS stream instead of finding plane B
		// idle (Section 4: system software owns its own network).
		n.advanceOS(st.attemptAt())
		if !st.begin(plane) {
			continue
		}
		tr, res := n.send(st.entry, st.path, payloadBytes, t.cfg.SetupTimeout, t.cfg.AckTimeout)
		if res.outcome == walkFailed {
			// Silence on the wire: the sender learns only via the
			// acknowledgment timeout, wherever the fault sits.
			n.planes[plane].lost(res.cut)
			st.lost(res.cut, st.entry+t.cfg.AckTimeout)
			continue
		}
		arrived(&n.planes, plane, tr.Corrupted)
		if tr.Corrupted {
			st.nack(tr.LastByte + t.cfg.NackLatency)
			continue
		}
		return st.delivered(tr), nil
	}
}

// resetFaultState clears the plane-down cache (Network.Reset); routes
// depend only on the immutable topology and are not the transport's.
func (t *Transport) resetFaultState() {
	t.down = [ni.LinksPerNode]planeDown{}
}
