// Metrics wiring for the network and its transports: the deterministic
// registry instruments (internal/metrics) the send path feeds whether
// or not tracing is enabled. Instruments are resolved once at attach
// time and held as nil-safe pointers, so the hot path pays one nil
// check per observation — the same always-on contract as the nil trace
// recorder.

package netsim

import (
	"powermanna/internal/metrics"
	"powermanna/internal/sim"
)

// Metric names the network feeds; pmfault --metrics dumps them.
const (
	// MetricSends counts reliable sends entering the failover protocol.
	MetricSends = "netsim.send.total"
	// MetricDelivered counts sends that delivered on some plane.
	MetricDelivered = "netsim.send.delivered"
	// MetricFailed counts sends both planes failed to carry.
	MetricFailed = "netsim.send.failed"
	// MetricRetried counts deliveries that missed their first-choice
	// plane.
	MetricRetried = "netsim.send.retried"
	// MetricPlaneDownHits counts plane attempts short-circuited by the
	// plane-down cache; MetricPlaneDownHits over MetricSends is the cache
	// hit ratio the degradation curve bends on.
	MetricPlaneDownHits = "netsim.plane-down.hits"
	// MetricSendLatency is the sender-observed latency histogram of
	// delivered messages, detection windows and retries included.
	MetricSendLatency = "netsim.send.latency"
	// MetricDetection is the per-failed-attempt detection-window
	// histogram: how long the driver took to learn an attempt died
	// (ack timeout, NACK return or FIFO-stall abandon).
	MetricDetection = "netsim.failover.detection"
	// MetricSendLatencyTenantPrefix prefixes the per-tenant delivered-
	// latency histograms: one histogram per label declared via
	// Transport.SetTenant or PartNetwork.SetTenants, on finer buckets
	// than the machine-wide MetricSendLatency so tail percentiles
	// (internal/traffic SLOs) resolve within a quasi-√2 step.
	MetricSendLatencyTenantPrefix = MetricSendLatency + "."
	// MetricSendWaitPrefix prefixes the latency-decomposition histograms:
	// every delivered message's latency split exactly into the Decomp
	// components, machine-wide as netsim.send.wait.<component> and — for
	// labelled sends — per tenant as netsim.send.wait.<component>.<name>.
	// The sums are exact: across any set of delivered messages the four
	// component histogram sums add up to the latency histogram's sum.
	MetricSendWaitPrefix = "netsim.send.wait."
)

// waitComponents orders the Decomp components as the wait histogram
// arrays index them; the names complete MetricSendWaitPrefix.
var waitComponents = [4]string{"arb", "wire", "detect", "retry"}

// latencyBuckets spans the send-latency range of interest: from the
// paper's sub-4 µs happy path up past several stacked 12 µs detection
// windows.
func latencyBuckets() []sim.Time {
	return metrics.TimeBuckets(sim.Microsecond, 2, 10) // 1 µs .. 512 µs
}

// tenantLatencyBuckets is the per-tenant latency ladder: a quasi-√2
// geometric sequence (1, 1.5, 2, 3, 4, 6, ... µs) spanning the same
// range as latencyBuckets with twice the resolution, because SLO
// percentiles are read off these buckets and a factor-2 ladder would
// round a p999 up to double its true value.
func tenantLatencyBuckets() []sim.Time {
	out := make([]sim.Time, 0, 20)
	for b := sim.Microsecond; b <= 512*sim.Microsecond; b *= 2 {
		out = append(out, b, b+b/2)
	}
	return out
}

// waitBuckets spans the component-wait range: from a single cached
// plane-down check (50 ns) up past several stacked detection windows.
// Finer at the bottom than latencyBuckets because the wire component of
// a small message is a few hundred nanoseconds.
func waitBuckets() []sim.Time {
	return metrics.TimeBuckets(50*sim.Nanosecond, 2, 14) // 50 ns .. 409.6 µs
}

// waitHistograms resolves the four decomposition histograms under a
// name prefix ending at the component (machine-wide instruments).
func waitHistograms(m *metrics.Registry) [4]*metrics.Histogram {
	var out [4]*metrics.Histogram
	for i, comp := range waitComponents {
		out[i] = m.TimeHistogram(MetricSendWaitPrefix+comp, waitBuckets())
	}
	return out
}

// tenantWaitHistograms resolves one tenant's four decomposition
// histograms (netsim.send.wait.<component>.<name>).
func tenantWaitHistograms(m *metrics.Registry, name string) [4]*metrics.Histogram {
	var out [4]*metrics.Histogram
	for i, comp := range waitComponents {
		out[i] = m.TimeHistogram(MetricSendWaitPrefix+comp+"."+name, waitBuckets())
	}
	return out
}

// observeDecomp feeds one delivered message's decomposition into a
// component histogram array (no-ops when unresolved).
//
//pmlint:hotpath
func observeDecomp(w *[4]*metrics.Histogram, c Decomp) {
	w[0].ObserveTime(c.Arb)
	w[1].ObserveTime(c.Wire)
	w[2].ObserveTime(c.Detect)
	w[3].ObserveTime(c.Retry)
}

// netInstruments holds the network's resolved instruments; the zero
// value (all nil) is the "metrics off" state.
type netInstruments struct {
	sends, delivered, failed, retried, planeDownHits *metrics.Counter
	sendLatency, detection                           *metrics.Histogram
	// wait holds the machine-wide latency-decomposition histograms in
	// waitComponents order; every delivered send feeds them.
	wait [4]*metrics.Histogram
	// tenantLat holds the per-tenant delivered-latency histograms,
	// indexed by a send's tenant label (Transport.SetTenant,
	// PartNetwork.SetTenants); nil when unlabelled. tenantWait holds the
	// matching per-tenant decomposition histograms.
	tenantLat  []*metrics.Histogram
	tenantWait [][4]*metrics.Histogram
}

// newNetInstruments resolves the send-path instruments in m, with the
// per-tenant histograms of every label in tenants (all off when m is
// nil).
func newNetInstruments(m *metrics.Registry, tenants []string) netInstruments {
	if m == nil {
		return netInstruments{}
	}
	mi := netInstruments{
		sends:         m.Counter(MetricSends),
		delivered:     m.Counter(MetricDelivered),
		failed:        m.Counter(MetricFailed),
		retried:       m.Counter(MetricRetried),
		planeDownHits: m.Counter(MetricPlaneDownHits),
		sendLatency:   m.TimeHistogram(MetricSendLatency, latencyBuckets()),
		detection:     m.TimeHistogram(MetricDetection, latencyBuckets()),
		wait:          waitHistograms(m),
	}
	mi.setTenants(m, tenants)
	return mi
}

// setTenants resolves the per-tenant histograms of every label in
// names from m, replacing the previous set; nothing when m is nil or
// no label is declared.
func (mi *netInstruments) setTenants(m *metrics.Registry, names []string) {
	mi.tenantLat, mi.tenantWait = nil, nil
	if m == nil || len(names) == 0 {
		return
	}
	mi.tenantLat = make([]*metrics.Histogram, len(names))
	mi.tenantWait = make([][4]*metrics.Histogram, len(names))
	for i, name := range names {
		mi.tenantLat[i] = m.TimeHistogram(MetricSendLatencyTenantPrefix+name, tenantLatencyBuckets())
		mi.tenantWait[i] = tenantWaitHistograms(m, name)
	}
}

// SetMetrics attaches a metrics registry: the failover send path feeds
// send outcome counters and latency/detection histograms, and every
// crossbar feeds the shared arbitration instruments plus the per-plane
// arbitration-wait histogram of the plane it serves (per the topology's
// CrossbarPlanes flood; unreachable crossbars feed only the shared
// instrument). A nil registry detaches everything — the default state,
// costing the instrumented paths one nil check per observation.
func (n *Network) SetMetrics(m *metrics.Registry) {
	n.mreg = m
	n.met = newNetInstruments(m, n.tenants)
	planes := n.topo.CrossbarPlanes()
	for i := range n.xbars {
		label := ""
		if planes[i] >= 0 {
			label = planeName(planes[i])
		}
		n.xbars[i].Metrics(m, label)
	}
}

// observeSend tallies one completed reliable send.
func (mi *netInstruments) observeSend(d *Delivery) {
	mi.sends.Inc()
	mi.planeDownHits.Add(int64(d.SkippedDown))
	if d.Failed {
		mi.failed.Inc()
		return
	}
	mi.delivered.Inc()
	mi.sendLatency.ObserveTime(d.Latency())
	observeDecomp(&mi.wait, d.Decomp)
	if d.Retried {
		mi.retried.Inc()
	}
}
