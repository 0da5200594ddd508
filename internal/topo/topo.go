// Package topo builds and routes PowerMANNA interconnect topologies
// (Section 3 and Figure 5 of the paper).
//
// The interconnect is a hierarchy of 16×16 crossbars. Every node carries
// two bidirectional link ports attached to two separate networks — the
// duplicated communication system that doubles bandwidth and lets system
// software claim one network while applications own the other (Section 4).
//
// Two standard configurations are provided:
//
//   - Cluster8 (Figure 5a): eight single-board nodes and two crossbars in
//     one desk-side cabinet. Node i's link 0 attaches to crossbar A port
//     i, link 1 to crossbar B port i; ports 8–15 of both crossbars remain
//     free as eight asynchronous dual-links for inter-cluster cabling.
//
//   - System256 (Figure 5b): 256 processors = 128 two-way nodes = 16
//     clusters. Each network's free cluster ports fan out to a stage of
//     eight central 16×16 crossbars (one link from every cluster to every
//     central crossbar), forming a permutation network per link plane —
//     the rows and columns of the figure. Any two nodes are connected
//     through at most three crossbars, as the paper states.
//
// Arbitrary hierarchies can be assembled with the same primitives; routes
// are found by breadth-first search over the port graph, which is valid
// because the PowerMANNA crossbar routes any input to any output (unlike
// the CM-5's level-restricted 8×8 crossbar). A route depends only on the
// wiring, so each (src, dst, network) is searched once per Topology and
// shared by every network, transport and shard built over it.
package topo

import (
	"fmt"
	"sync"
	"sync/atomic"

	"powermanna/internal/xbar"
)

// NetworkA and NetworkB select which of the duplicated networks (node
// link ports) a route uses.
const (
	NetworkA = 0
	NetworkB = 1
)

// networks is the number of duplicated networks a route can leave on.
const networks = 2

// edge is one end of a bidirectional physical link, stored at the port
// it leaves from; the zero edge is an unwired port.
type edge struct {
	peerDev  int
	peerPort int
	async    bool // crosses an asynchronous transceiver pair
	wired    bool
}

// Topology is an assembled interconnect.
type Topology struct {
	name     string
	nodes    int
	xbarName []string
	// links is the dense port table: the edge leaving port p of device dev
	// is links[dev*xbar.Ports+p]. Nodes use the first two slots of their
	// stride (link ports 0 and 1).
	links []edge
	// routes is the shared route table: the outcome of Route(src, dst,
	// network) is published once at routes[(src*nodes+dst)*networks+
	// network]. Seal allocates it; a non-nil table means the wiring is
	// frozen.
	routes []atomic.Pointer[route]
	seal   sync.Once
}

// New starts an empty topology with the given number of nodes.
func New(name string, nodes int) *Topology {
	return &Topology{name: name, nodes: nodes, links: make([]edge, nodes*xbar.Ports)}
}

// Name returns the topology label.
func (t *Topology) Name() string { return t.name }

// Nodes reports the node count.
func (t *Topology) Nodes() int { return t.nodes }

// Crossbars reports the crossbar count.
func (t *Topology) Crossbars() int { return len(t.xbarName) }

// CrossbarName returns the label of crossbar i.
func (t *Topology) CrossbarName(i int) string { return t.xbarName[i] }

// AddCrossbar appends a crossbar and returns its device index (node count
// + crossbar ordinal). It panics once the topology is sealed.
func (t *Topology) AddCrossbar(name string) int {
	t.mustBeOpen("AddCrossbar")
	t.xbarName = append(t.xbarName, name)
	t.links = append(t.links, make([]edge, xbar.Ports)...)
	return t.nodes + len(t.xbarName) - 1
}

// link returns the edge leaving port p of device dev (the zero edge if
// unwired). The port must be in range.
func (t *Topology) link(dev, p int) edge { return t.links[dev*xbar.Ports+p] }

// xbarIndex converts a device index to a crossbar ordinal.
func (t *Topology) xbarIndex(dev int) int { return dev - t.nodes }

// isNode reports whether a device index is a node.
func (t *Topology) isNode(dev int) bool { return dev < t.nodes }

// Connect wires (devA, portA) to (devB, portB) as one bidirectional link.
// async marks an inter-cabinet link through transceivers. It returns an
// error if either port is already wired or out of range, and panics once
// the topology is sealed.
func (t *Topology) Connect(devA, portA, devB, portB int, async bool) error {
	t.mustBeOpen("Connect")
	for _, dp := range [2][2]int{{devA, portA}, {devB, portB}} {
		if err := t.checkPort(dp[0], dp[1]); err != nil {
			return err
		}
		if t.link(dp[0], dp[1]).wired {
			return fmt.Errorf("topo %s: port {%d %d} already wired", t.name, dp[0], dp[1])
		}
	}
	t.links[devA*xbar.Ports+portA] = edge{peerDev: devB, peerPort: portB, async: async, wired: true}
	t.links[devB*xbar.Ports+portB] = edge{peerDev: devA, peerPort: portA, async: async, wired: true}
	return nil
}

// Seal freezes the wiring and allocates the shared route table (8 bytes
// per (src, dst, network) slot: 262 KB for System256). Routes are filled
// on first lookup and never recomputed, so rewiring afterwards would leave
// them stale: Connect and AddCrossbar panic on a sealed topology. The
// first Route seals implicitly; netsim.New seals up front so a simulation
// pays for the table at set-up. Seal is idempotent and safe for
// concurrent use.
func (t *Topology) Seal() {
	t.seal.Do(func() { t.routes = make([]atomic.Pointer[route], t.nodes*t.nodes*networks) })
}

// mustBeOpen panics if the topology is sealed.
func (t *Topology) mustBeOpen(op string) {
	if t.routes != nil {
		panic(fmt.Sprintf("topo %s: %s after routing (the topology is sealed)", t.name, op))
	}
}

func (t *Topology) checkPort(dev, p int) error {
	switch {
	case dev < 0 || dev >= t.nodes+len(t.xbarName):
		return fmt.Errorf("topo %s: device %d out of range", t.name, dev)
	case t.isNode(dev) && (p < 0 || p > 1):
		return fmt.Errorf("topo %s: node %d has ports 0 and 1, not %d", t.name, dev, p)
	case !t.isNode(dev) && (p < 0 || p >= xbar.Ports):
		return fmt.Errorf("topo %s: crossbar port %d out of range", t.name, p)
	}
	return nil
}

// Hop is one crossbar traversal of a route.
type Hop struct {
	// Xbar is the crossbar ordinal (index into Crossbars()).
	Xbar int
	// In and Out are the input and output channels used.
	In, Out int
	// AsyncIn marks that the link feeding this hop crossed transceivers.
	AsyncIn bool
}

// Path is a source-routed connection.
type Path struct {
	Src, Dst int
	Network  int
	Hops     []Hop
	// RouteBytes is the message header: one route command per crossbar,
	// consumed hop by hop (Section 3.1).
	RouteBytes []byte
	// AsyncLinks counts transceiver crossings end to end.
	AsyncLinks int
}

// Route finds the shortest path from node src to node dst leaving src on
// the given network (link port). Among equal-length paths the choice is
// deterministic per (src, dst) pair but *spread*: the crossbar output
// scan order is rotated by a pair hash, so the eight parallel central
// crossbars of the Figure 5b system share permutation traffic instead of
// funnelling through one — the load distribution the duplicated
// hierarchy is built for.
//
// Each (src, dst, network) outcome, an unwired-plane or no-route error
// included, is searched once and cached in the topology's shared route
// table (see Seal); out-of-range arguments are rejected without caching.
// The returned Hops and RouteBytes are shared by every caller and must be
// treated as read-only. Route is safe for concurrent use.
func (t *Topology) Route(src, dst, network int) (Path, error) {
	e, err := t.entry(src, dst, network)
	if err != nil {
		return Path{}, err
	}
	return e.path, e.err
}

// entry returns the route-table entry of (src, dst, network), searching
// and publishing it on first use, or an argument error.
func (t *Topology) entry(src, dst, network int) (*route, error) {
	if src < 0 || src >= t.nodes || dst < 0 || dst >= t.nodes {
		return nil, fmt.Errorf("topo %s: node out of range (%d, %d)", t.name, src, dst)
	}
	if network != NetworkA && network != NetworkB {
		return nil, fmt.Errorf("topo %s: network %d invalid", t.name, network)
	}
	t.Seal()
	slot := &t.routes[(src*t.nodes+dst)*networks+network]
	r := slot.Load()
	if r == nil {
		// Concurrent first lookups each search; the compare-and-swap keeps
		// the first result and the others adopt it, dropping their
		// identical copies, so no lock is needed.
		r = t.search(src, dst, network)
		if !slot.CompareAndSwap(nil, r) {
			r = slot.Load()
		}
	}
	return r, nil
}

// RouteRow is one source node's row of the shared route table: a handle
// for senders that look up many routes from the same node, whose warm
// lookup is one index and one atomic load.
type RouteRow struct {
	t     *Topology
	src   int
	slots []atomic.Pointer[route]
}

// RoutesFrom returns node src's row of the route table, sealing the
// topology. An out-of-range src yields a row whose lookups all return
// Route's range error.
func (t *Topology) RoutesFrom(src int) RouteRow {
	t.Seal()
	r := RouteRow{t: t, src: src}
	if src >= 0 && src < t.nodes {
		r.slots = t.routes[src*t.nodes*networks : (src+1)*t.nodes*networks]
	}
	return r
}

// Route is Topology.Route from the row's source node, by reference: the
// returned Path is the route table's own entry, shared by every caller
// for the topology's lifetime, and must be treated as read-only (Path
// and its slices alike). It is nil whenever the error is not: Route's
// argument errors and the cached unwired-plane and no-route errors.
//
//pmlint:hotpath
func (r *RouteRow) Route(dst, network int) (*Path, error) {
	if uint(dst) < uint(len(r.slots)/networks) && uint(network) < networks {
		if e := r.slots[dst*networks+network].Load(); e != nil {
			return e.ref()
		}
	}
	e, err := r.t.entry(r.src, dst, network)
	if err != nil {
		return nil, err
	}
	return e.ref()
}

// inlineHops is the longest route whose Hops and RouteBytes live inside
// its table entry, so a cold fill is one allocation (System256 routes
// cross at most three crossbars). Longer mesh routes allocate both.
const inlineHops = 4

// searchScratch bounds the stack-held BFS scratch (two int32 per device);
// larger topologies search with a heap scratch.
const searchScratch = 512

// route is one route-table entry: a lookup outcome and the storage its
// path's slices alias.
type route struct {
	path  Path
	err   error
	hops  [inlineHops]Hop
	bytes [inlineHops]byte
}

// ref is the entry's outcome by reference: its path, or nil and its
// error.
func (r *route) ref() (*Path, error) {
	if r.err != nil {
		return nil, r.err
	}
	return &r.path, nil
}

// search runs the uncached breadth-first route search for validated
// arguments. A failed search leaves the entry's path zero.
//
// The search stops as soon as the crossbar whose expansion would discover
// dst is known, without expanding it or the rest of its BFS level. dst is
// a node, so its only neighbours are the crossbars at the far ends of its
// two links, and crossbars are expanded in the order they are discovered:
// the first of dst's neighbours to be discovered is the one that
// discovers dst, its own predecessor is fixed at its discovery, and dst
// hangs off its first port, in that crossbar's expansion order, wired to
// dst. The path is the one the full search finds.
func (t *Topology) search(src, dst, network int) *route {
	r := &route{}
	if src == dst {
		r.path = Path{Src: src, Dst: dst, Network: network}
		return r
	}
	first := t.link(src, network)
	if !first.wired {
		r.err = fmt.Errorf("topo %s: node %d link %d not wired", t.name, src, network)
		return r
	}

	// BFS over devices, starting from the device at the end of src's link.
	// One slice holds all search state, on the stack for topologies of up
	// to searchScratch/2 devices. pred[dev] is 0 for an unvisited device,
	// -1 for a root (src and the first device), else 1 + the port-table
	// slot dev was discovered through; queue holds the crossbars awaiting
	// expansion (each device is enqueued at most once, so it never
	// outgrows its half).
	devs := len(t.links) / xbar.Ports
	var buf [searchScratch]int32
	scratch := buf[:0]
	if 2*devs <= len(buf) {
		scratch = buf[:2*devs]
	} else {
		scratch = make([]int32, 2*devs)
	}
	pred, queue := scratch[:devs], scratch[devs:devs]
	pred[src], pred[first.peerDev] = -1, -1
	last := -1 // the crossbar that discovers dst, once known
	found := first.peerDev == dst
	switch {
	case found || t.isNode(first.peerDev):
		// src's link ends at dst, or at another node: nothing to search.
	case t.linksTo(dst, first.peerDev):
		last = first.peerDev
	default:
		queue = append(queue, int32(first.peerDev))
	}
	for head := 0; last < 0 && head < len(queue); head++ {
		cur := int(queue[head])
		for _, out := range expandOrder(src, dst, network, cur) {
			slot := cur*xbar.Ports + out
			e := t.links[slot]
			if !e.wired || pred[e.peerDev] != 0 {
				continue
			}
			pred[e.peerDev] = int32(slot + 1)
			if t.isNode(e.peerDev) { // routes only pass through crossbars
				continue
			}
			if t.linksTo(dst, e.peerDev) {
				last = e.peerDev
				break
			}
			queue = append(queue, int32(e.peerDev))
		}
	}
	if last >= 0 {
		for _, out := range expandOrder(src, dst, network, last) {
			if e := t.links[last*xbar.Ports+out]; e.wired && e.peerDev == dst {
				pred[dst] = int32(last*xbar.Ports + out + 1)
				found = true
				break
			}
		}
	}
	if !found {
		r.err = fmt.Errorf("topo %s: no route %d -> %d on network %d", t.name, src, dst, network)
		return r
	}

	// Count the crossbars on the way back from dst, then fill the hops in
	// route order from the same walk: each link walked is the output of
	// hop i and the input of hop i+1.
	n := 0
	for dev := dst; dev != first.peerDev; dev = int(pred[dev]-1) / xbar.Ports {
		n++
	}
	r.path = Path{Src: src, Dst: dst, Network: network}
	path := &r.path
	if first.async {
		path.AsyncLinks++
	}
	switch {
	case n == 0:
		return r
	case n <= inlineHops:
		path.Hops, path.RouteBytes = r.hops[:n:n], r.bytes[:n:n]
	default:
		path.Hops, path.RouteBytes = make([]Hop, n), make([]byte, n)
	}
	dev := dst
	for i := n - 1; i >= 0; i-- {
		slot := int(pred[dev] - 1)
		e := t.links[slot]
		if e.async {
			path.AsyncLinks++
		}
		dev = slot / xbar.Ports
		out := slot % xbar.Ports
		path.Hops[i] = Hop{Xbar: t.xbarIndex(dev), Out: out}
		path.RouteBytes[i] = xbar.EncodeRoute(out)
		if i+1 < n {
			path.Hops[i+1].In, path.Hops[i+1].AsyncIn = e.peerPort, e.async
		}
	}
	path.Hops[0].In, path.Hops[0].AsyncIn = first.peerPort, first.async
	return r
}

// linksTo reports whether one of node n's two links ends at device dev.
func (t *Topology) linksTo(n, dev int) bool {
	a, b := t.link(n, 0), t.link(n, 1)
	return a.wired && a.peerDev == dev || b.wired && b.peerDev == dev
}

// expandOrder is the order in which the search from src to dst on
// network scans crossbar device cur's ports: deterministic, and shuffled
// per (src, dst, device) so equal-cost alternatives spread uniformly
// across parallel crossbars (a rotation would bias toward the first valid
// port).
func expandOrder(src, dst, network, cur int) [xbar.Ports]int {
	return portOrder(uint64(src)*1_000_003 + uint64(dst)*131 + uint64(network)*17 + uint64(cur)*31)
}

// portOrder returns a deterministic pseudo-random permutation of the
// crossbar ports for the given seed (xorshift-driven Fisher–Yates).
func portOrder(seed uint64) [xbar.Ports]int {
	var p [xbar.Ports]int
	for i := range p {
		p[i] = i
	}
	x := seed*2654435761 + 1
	for i := xbar.Ports - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// MaxCrossbars reports the maximum crossbar count over all node pairs and
// both networks — the paper's "at most three crossbars" claim for the
// 256-processor system.
func (t *Topology) MaxCrossbars() (int, error) {
	max := 0
	for s := 0; s < t.nodes; s++ {
		for d := 0; d < t.nodes; d++ {
			if s == d {
				continue
			}
			for _, net := range []int{NetworkA, NetworkB} {
				if !t.link(s, net).wired {
					continue // single-network topologies (e.g. meshes)
				}
				p, err := t.Route(s, d, net)
				if err != nil {
					return 0, err
				}
				if len(p.Hops) > max {
					max = len(p.Hops)
				}
			}
		}
	}
	return max, nil
}

// FreePorts reports unwired ports on crossbar ordinal i.
func (t *Topology) FreePorts(i int) int {
	free := 0
	for p := 0; p < xbar.Ports; p++ {
		if !t.link(t.nodes+i, p).wired {
			free++
		}
	}
	return free
}
