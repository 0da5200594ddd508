package topo

import (
	"strings"
	"testing"
)

// TestPartitionSystem256TwoSegment sweeps every (src, dst, network) route
// of the 256-processor system for every aligned shard count and checks
// the ownership decomposition the split-phase send path relies on: a
// source-owned prefix, a destination-owned suffix, one handoff.
func TestPartitionSystem256TwoSegment(t *testing.T) {
	top := System256()
	for _, shards := range []int{1, 2, 4, 8, 16} {
		p, err := top.Partition(shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if p.Shards() != shards {
			t.Fatalf("shards=%d: Shards()=%d", shards, p.Shards())
		}
		crossShard := 0
		for src := 0; src < top.Nodes(); src++ {
			for dst := 0; dst < top.Nodes(); dst++ {
				if src == dst {
					continue
				}
				for _, net := range []int{NetworkA, NetworkB} {
					path, err := top.Route(src, dst, net)
					if err != nil {
						t.Fatal(err)
					}
					b := p.Boundary(&path)
					ss, ds := p.NodeShard(src), p.NodeShard(dst)
					if ss == ds && b != len(path.Hops) {
						t.Fatalf("shards=%d %d->%d net%d: intra-shard route has boundary %d", shards, src, dst, net, b)
					}
					if ss != ds {
						crossShard++
						if b >= len(path.Hops) {
							t.Fatalf("shards=%d %d->%d net%d: cross-shard route never hands off", shards, src, dst, net)
						}
					}
					// Prefix hops source-owned, suffix hops destination-owned:
					// exactly one ownership change along the walk.
					for i, h := range path.Hops {
						own := p.XbarOutOwner(h.Xbar, h.Out)
						want := ss
						if i >= b {
							want = ds
						}
						if own != want {
							t.Fatalf("shards=%d %d->%d net%d hop %d: owner %d, want %d (boundary %d)",
								shards, src, dst, net, i, own, want, b)
						}
					}
				}
			}
		}
		if shards > 1 && crossShard == 0 {
			t.Fatalf("shards=%d: no cross-shard routes exercised", shards)
		}
	}
}

// TestPartitionAlignment pins the rejection cases: a shard count that
// splits a leaf-crossbar group, and one that does not divide the nodes.
func TestPartitionAlignment(t *testing.T) {
	c8 := Cluster8()
	if _, err := c8.Partition(1); err != nil {
		t.Fatalf("Cluster8 shards=1: %v", err)
	}
	if _, err := c8.Partition(2); err == nil || !strings.Contains(err.Error(), "align") {
		t.Fatalf("Cluster8 shards=2: want leaf-alignment error, got %v", err)
	}
	s256 := System256()
	if _, err := s256.Partition(3); err == nil || !strings.Contains(err.Error(), "divisible") {
		t.Fatalf("System256 shards=3: want divisibility error, got %v", err)
	}
	if _, err := s256.Partition(0); err == nil {
		t.Fatal("shards=0 accepted")
	}
	// 32 shards would carve 4-node half-groups out of 8-node leaf groups.
	if _, err := s256.Partition(32); err == nil || !strings.Contains(err.Error(), "align") {
		t.Fatalf("System256 shards=32: want leaf-alignment error, got %v", err)
	}
	// A crossbar-free single node is one group at the natural grain.
	if p, err := New("single", 1).GroupPartition(); err != nil || p.Shards() != 1 {
		t.Fatalf("single-node GroupPartition = %v, %v; want 1 group", p, err)
	}
}

// TestPartitionOwnershipTables spot-checks the wiring-derived tables on
// System256 with 16 shards (one leaf group per shard, the finest grain).
func TestPartitionOwnershipTables(t *testing.T) {
	top := System256()
	p, err := top.Partition(16)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < top.Nodes(); n++ {
		if got, want := p.NodeShard(n), n/8; got != want {
			t.Fatalf("node %d: shard %d, want %d", n, got, want)
		}
	}
	// Leaf crossbars A_c (ordinal 2c) and B_c (2c+1): every wired output
	// belongs to cluster c's shard.
	for c := 0; c < 16; c++ {
		for _, x := range []int{2 * c, 2*c + 1} {
			for out := 0; out < 16; out++ {
				if own := p.XbarOutOwner(x, out); own != c {
					t.Fatalf("leaf xbar %d out %d: owner %d, want %d", x, out, own, c)
				}
			}
		}
	}
	// Central crossbars (ordinals 32..47): output c feeds cluster c.
	for x := 32; x < 48; x++ {
		for out := 0; out < 16; out++ {
			if own := p.XbarOutOwner(x, out); own != out {
				t.Fatalf("central xbar %d out %d: owner %d, want %d", x, out, own, out)
			}
		}
	}
}
