// Node partitioning for the parallel engine (internal/psim): carve a
// topology into contiguous node groups, one group run per shard, and
// assign every directed network resource to exactly one owning shard so
// the split-phase send path of internal/netsim touches remote state only
// through timestamped cross-shard events.
//
// The ownership rule mirrors the machine's wiring (Figure 5b): every
// resource on the *up* direction of the hierarchy — a node's uplink
// wire, its leaf crossbar's outputs, the leaf-to-central wire — belongs
// to the shard of the leaf group it originates from; every resource on
// the *down* direction — a central crossbar's output, the
// central-to-leaf wire, the leaf-to-node wire — belongs to the shard of
// the leaf group it terminates in. A route through the two-level
// hierarchy (node → leaf → central → leaf → node) therefore decomposes
// into exactly two ownership segments, with the handoff at the central
// crossbar's output channel — the one point where a message leaves its
// source group's half of the machine.
//
// The decomposition is only that clean when shard boundaries align with
// leaf-crossbar groups: splitting a leaf group would put two shards on
// one crossbar's node-facing outputs, and — worse for the conservative
// windows — the first remote resource would then sit one wire away from
// the source node, under even the synchronous-link floor
// psim.DefaultLookahead. Partition rejects misaligned shard counts for
// exactly that reason. With aligned groups every handoff sits on a
// leaf-to-central wire (BoundaryLinks); on System256 those cross
// asynchronous transceivers, which is what lets internal/netsim widen
// its windows past that floor.
package topo

import (
	"fmt"

	"powermanna/internal/xbar"
)

// Partition is a deterministic assignment of nodes to shards and of
// directed network resources (directed wires, crossbar output channels)
// to owning shards. It is pure data: internal/netsim consults it on
// every partitioned send, internal/fault uses it to aim injectors at the
// owning shard.
type Partition struct {
	shards    int
	nodeShard []int
	// leafGroup maps a crossbar ordinal to its leaf group (-1 for a
	// central-stage crossbar adjacent to no node).
	leafGroup []int
	// outOwner maps (crossbar ordinal, output port), at
	// ordinal*xbar.Ports+port, to the shard owning both the output
	// channel and the directed wire leaving it (-1 for an unwired port).
	outOwner []int
}

// Partition carves the topology into shards contiguous node groups of
// equal size and derives the resource-ownership tables. shards must
// divide the node count, and every leaf-crossbar group (the nodes
// sharing a leaf crossbar) must land entirely inside one shard — the
// alignment that keeps every route a two-segment src/dst decomposition
// and keeps the first cross-shard event at least a crossbar route setup
// plus a crossing of a boundary wire in the future (see BoundaryLinks;
// never less than psim.DefaultLookahead). A single-shard partition is
// valid for any topology.
func (t *Topology) Partition(shards int) (*Partition, error) {
	if shards < 1 {
		return nil, fmt.Errorf("topo %s: partition into %d shards", t.name, shards)
	}
	if t.nodes%shards != 0 {
		return nil, fmt.Errorf("topo %s: %d nodes not divisible into %d shards", t.name, t.nodes, shards)
	}
	per := t.nodes / shards
	nodeShard := make([]int, t.nodes)
	for n := range nodeShard {
		nodeShard[n] = n / per
	}
	return t.derivePartition(nodeShard, shards)
}

// GroupPartition partitions at the topology's natural grain: one shard
// per leaf-crossbar group (the nodes sharing a network-A leaf). This is
// the finest aligned partition — the grain the split-phase send path
// fixes its event program to, so that coarser shard counts replay the
// identical history. A topology with no crossbars (a single node) is
// one group.
func (t *Topology) GroupPartition() (*Partition, error) {
	if len(t.xbarName) == 0 {
		return t.Partition(1)
	}
	nodeShard := make([]int, t.nodes)
	leafOf := make(map[int]int) // leaf device -> group index
	for n := 0; n < t.nodes; n++ {
		e := t.link(n, NetworkA)
		if !e.wired {
			return nil, fmt.Errorf("topo %s: node %d link A not wired", t.name, n)
		}
		g, seen := leafOf[e.peerDev]
		if !seen {
			g = len(leafOf)
			leafOf[e.peerDev] = g
		} else if nodeShard[n-1] != g {
			return nil, fmt.Errorf("topo %s: leaf group of node %d is not contiguous", t.name, n)
		}
		nodeShard[n] = g
	}
	return t.derivePartition(nodeShard, len(leafOf))
}

// derivePartition builds the ownership tables over a node-to-shard map.
func (t *Topology) derivePartition(nodeShard []int, shards int) (*Partition, error) {
	p := &Partition{
		shards:    shards,
		nodeShard: nodeShard,
		leafGroup: make([]int, len(t.xbarName)),
		outOwner:  make([]int, len(t.xbarName)*xbar.Ports),
	}

	// Classify crossbars: a leaf is adjacent to at least one node, and its
	// group is the shard of its attached nodes (which must agree — a leaf
	// group split across shards is a misaligned partition).
	for x := range p.leafGroup {
		p.leafGroup[x] = -1
		dev := t.nodes + x
		for o := 0; o < xbar.Ports; o++ {
			e := t.link(dev, o)
			if !e.wired || !t.isNode(e.peerDev) {
				continue
			}
			s := p.nodeShard[e.peerDev]
			if p.leafGroup[x] == -1 {
				p.leafGroup[x] = s
			} else if p.leafGroup[x] != s && shards > 1 {
				return nil, fmt.Errorf(
					"topo %s: %d shards split leaf crossbar %s across shards %d and %d (shards must align with leaf groups)",
					t.name, shards, t.xbarName[x], p.leafGroup[x], s)
			}
		}
	}

	// Ownership of output channels and the directed wires leaving them.
	for x := range p.leafGroup {
		owner := p.outOwner[x*xbar.Ports : (x+1)*xbar.Ports]
		dev := t.nodes + x
		for o := range owner {
			e := t.link(dev, o)
			switch {
			case !e.wired:
				owner[o] = -1
			case p.leafGroup[x] >= 0:
				// Leaf crossbar: both node-facing and central-facing outputs
				// originate in the leaf's group.
				owner[o] = p.leafGroup[x]
			case t.isNode(e.peerDev):
				// A central crossbar wired straight to a node cannot happen
				// (it would be a leaf); keep the case for clarity.
				owner[o] = p.nodeShard[e.peerDev]
			default:
				// Central crossbar output: owned by the leaf group it feeds.
				peer := t.xbarIndex(e.peerDev)
				if p.leafGroup[peer] < 0 {
					if shards > 1 {
						return nil, fmt.Errorf(
							"topo %s: crossbar %s-%s is a central-to-central link; partitioning supports two-level hierarchies only",
							t.name, t.xbarName[x], t.xbarName[peer])
					}
					owner[o] = 0
					continue
				}
				owner[o] = p.leafGroup[peer]
			}
		}
	}
	return p, nil
}

// Shards reports the shard count.
func (p *Partition) Shards() int { return p.shards }

// NodeShard reports the shard owning node n and all its per-node devices
// (link interfaces, transports, rank state).
func (p *Partition) NodeShard(n int) int { return p.nodeShard[n] }

// XbarOutOwner reports the shard owning crossbar x's output channel out
// and the directed wire leaving it (-1 if the port is unwired).
func (p *Partition) XbarOutOwner(x, out int) int { return p.outOwner[x*xbar.Ports+out] }

// Wired reports whether device dev drives a link out of port p — the
// wire-existence query internal/netsim uses to pre-create every directed
// wire before a partitioned run (lazy wire creation would write a shared
// map from concurrent shards).
func (t *Topology) Wired(dev, p int) bool {
	return t.checkPort(dev, p) == nil && t.link(dev, p).wired
}

// Boundary reports the index of the first hop of the path whose output
// channel belongs to the destination shard — where the split-phase send
// hands off. It returns len(path.Hops) when every hop is source-owned
// (an intra-shard route: the send never leaves its shard).
func (p *Partition) Boundary(path *Path) int {
	src := p.nodeShard[path.Src]
	for i, h := range path.Hops {
		if p.XbarOutOwner(h.Xbar, h.Out) != src {
			return i
		}
	}
	return len(path.Hops)
}

// BoundaryLinks counts the directed wires next to the ownership handoff
// of a cross-group route under partition p, and how many of them are
// synchronous. In a two-level hierarchy these are the wires between a
// leaf crossbar and a central one, in both directions: a route's
// source half ends on the leaf-to-central wire into the central
// crossbar where it changes owner, and its destination half starts at
// that crossbar's output with the central-to-leaf wire leaving it.
// internal/netsim sizes its conservative window from these wires. A
// wire joining two central crossbars, or the leaf crossbars of two
// different groups, breaks the two-level structure — a route could
// then hand off elsewhere, next to a node's wire — and is an error.
// The scan is linear in the wires.
func (t *Topology) BoundaryLinks(p *Partition) (links, sync int, err error) {
	for x, g := range p.leafGroup {
		for o := 0; o < xbar.Ports; o++ {
			e := t.link(t.nodes+x, o)
			if !e.wired || t.isNode(e.peerDev) {
				continue
			}
			peer := t.xbarIndex(e.peerDev)
			h := p.leafGroup[peer]
			switch {
			case g >= 0 && g == h:
				continue // a link inside one group
			case (g < 0) == (h < 0):
				return 0, 0, fmt.Errorf("topo %s: crossbars %s and %s are wired directly across groups; handoffs are only bounded in a leaf/central hierarchy",
					t.name, t.xbarName[x], t.xbarName[peer])
			}
			links++
			if !e.async {
				sync++
			}
		}
	}
	return links, sync, nil
}
