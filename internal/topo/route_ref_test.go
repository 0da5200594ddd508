package topo

import (
	"fmt"
	"testing"

	"powermanna/internal/xbar"
)

// searchRef is the reference route search: a full breadth-first search
// that expands crossbars in discovery order until one of them discovers
// dst. search must find the same outcome with its early exit;
// TestSearchMatchesReference compares the two.
func (t *Topology) searchRef(src, dst, network int) *route {
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
	found := first.peerDev == dst
	if !found && !t.isNode(first.peerDev) {
		queue = append(queue, int32(first.peerDev))
	}
search:
	for head := 0; head < len(queue); head++ {
		cur := int(queue[head])
		for _, out := range expandOrder(src, dst, network, cur) {
			slot := cur*xbar.Ports + out
			e := t.links[slot]
			if !e.wired || pred[e.peerDev] != 0 {
				continue
			}
			pred[e.peerDev] = int32(slot + 1)
			// dst's predecessor is fixed at discovery, so stopping here
			// yields the path a full search would.
			if e.peerDev == dst {
				found = true
				break search
			}
			if !t.isNode(e.peerDev) { // routes only pass through crossbars
				queue = append(queue, int32(e.peerDev))
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

// sharedPlaneXbar wires nodes whose two link ports land on one crossbar:
// dst can hang off two ports of the crossbar that discovers it. Crossbars
// A and B are joined by a synchronous and an asynchronous link.
func sharedPlaneXbar() *Topology {
	t := New("shared-xbar", 5)
	a, b := t.AddCrossbar("A"), t.AddCrossbar("B")
	mustConnect(t, a, 8, b, 8, false)
	mustConnect(t, a, 9, b, 9, true)
	mustConnect(t, 0, 0, a, 0, false)
	mustConnect(t, 0, 1, a, 7, false)
	mustConnect(t, 1, 0, b, 0, false)
	mustConnect(t, 1, 1, b, 7, false)
	mustConnect(t, 2, 0, a, 1, false)
	mustConnect(t, 2, 1, a, 2, false)
	mustConnect(t, 3, 0, b, 1, false) // plane B unwired
	mustConnect(t, 4, 0, b, 3, false)
	mustConnect(t, 4, 1, a, 3, false)
	return t
}

// sharedPlaneFabric wires nodes whose two link ports land on different
// crossbars of one connected fabric, so dst has two neighbours and the
// first one discovered must win. It also holds a direct node-to-node link
// (nodes 5 and 6) and an isolated crossbar E (node 7: no route).
func sharedPlaneFabric() *Topology {
	t := New("shared-fabric", 8)
	a, b, c, d := t.AddCrossbar("A"), t.AddCrossbar("B"), t.AddCrossbar("C"), t.AddCrossbar("D")
	e := t.AddCrossbar("E")
	mustConnect(t, a, 12, c, 12, false)
	mustConnect(t, b, 12, c, 13, true)
	mustConnect(t, c, 14, d, 12, false)
	mustConnect(t, a, 13, d, 13, true)
	mustConnect(t, a, 14, b, 14, false)
	for _, w := range []struct{ node, port, dev, xport int }{
		{0, 0, a, 0}, {0, 1, b, 0},
		{1, 0, b, 1}, {1, 1, d, 1},
		{2, 0, c, 2}, {2, 1, a, 2},
		{3, 0, d, 3}, {3, 1, c, 3},
		{4, 0, a, 4},
		{5, 1, b, 5}, {6, 1, d, 6},
		{7, 0, e, 0},
	} {
		mustConnect(t, w.node, w.port, w.dev, w.xport, false)
	}
	mustConnect(t, 5, 0, 6, 0, false)
	return t
}

// TestSearchMatchesReference compares every (src, dst, network) outcome
// of Route — the early-exit search, through the route table — with the
// reference full search, path and error text, on the standard topologies
// and on two hand-built ones where a node's two link ports land in one
// plane (both on one crossbar; on two crossbars of one fabric).
func TestSearchMatchesReference(t *testing.T) {
	for _, tp := range []*Topology{
		System256(), Cluster8(), Mesh(4, 4), Mesh(8, 3), sharedPlaneXbar(), sharedPlaneFabric(),
	} {
		for s := 0; s < tp.Nodes(); s++ {
			for d := 0; d < tp.Nodes(); d++ {
				for net := 0; net < networks; net++ {
					got, gotErr := tp.Route(s, d, net)
					want := tp.searchRef(s, d, net)
					if g, w := fmt.Sprintf("%+v %v", got, gotErr), fmt.Sprintf("%+v %v", want.path, want.err); g != w {
						t.Fatalf("%s Route(%d, %d, %d) = %s; reference search finds %s", tp.name, s, d, net, g, w)
					}
				}
			}
		}
	}
}
