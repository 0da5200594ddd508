package topo

import (
	"testing"
)

func TestCluster8Shape(t *testing.T) {
	c := Cluster8()
	if c.Nodes() != 8 || c.Crossbars() != 2 {
		t.Fatalf("cluster8: %d nodes, %d crossbars", c.Nodes(), c.Crossbars())
	}
	// Figure 5a: eight free dual-links remain for inter-cluster cabling.
	if f := c.FreePorts(0); f != 8 {
		t.Errorf("crossbar A free ports = %d, want 8", f)
	}
	if f := c.FreePorts(1); f != 8 {
		t.Errorf("crossbar B free ports = %d, want 8", f)
	}
}

func TestCluster8SingleHopRoutes(t *testing.T) {
	c := Cluster8()
	for _, net := range []int{NetworkA, NetworkB} {
		p, err := c.Route(0, 5, net)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Hops) != 1 {
			t.Fatalf("cluster route has %d hops, want 1", len(p.Hops))
		}
		if p.Hops[0].Xbar != net { // A for network 0, B for network 1
			t.Errorf("network %d routed via crossbar %d", net, p.Hops[0].Xbar)
		}
		if p.Hops[0].In != 0 || p.Hops[0].Out != 5 {
			t.Errorf("hop ports = in %d out %d, want 0 -> 5", p.Hops[0].In, p.Hops[0].Out)
		}
		if len(p.RouteBytes) != 1 || p.RouteBytes[0] != 5 {
			t.Errorf("route bytes = %v, want [5]", p.RouteBytes)
		}
		if p.AsyncLinks != 0 {
			t.Errorf("intra-cabinet route crossed %d async links", p.AsyncLinks)
		}
	}
}

func TestRouteSelfIsEmpty(t *testing.T) {
	c := Cluster8()
	p, err := c.Route(3, 3, NetworkA)
	if err != nil || len(p.Hops) != 0 {
		t.Errorf("self route = %v hops, err %v", p.Hops, err)
	}
}

func TestRouteErrors(t *testing.T) {
	c := Cluster8()
	if _, err := c.Route(-1, 0, NetworkA); err == nil {
		t.Error("negative node accepted")
	}
	if _, err := c.Route(0, 99, NetworkA); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, err := c.Route(0, 1, 7); err == nil {
		t.Error("bad network accepted")
	}
}

func TestConnectRejectsDoubleWiring(t *testing.T) {
	c := New("t", 2)
	x := c.AddCrossbar("X")
	if err := c.Connect(0, 0, x, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Connect(1, 0, x, 0, false); err == nil {
		t.Error("port double-wiring accepted")
	}
	if err := c.Connect(0, 5, x, 1, false); err == nil {
		t.Error("node port 5 accepted")
	}
	if err := c.Connect(1, 0, x, 99, false); err == nil {
		t.Error("crossbar port 99 accepted")
	}
}

func TestSystem256Shape(t *testing.T) {
	s := System256()
	if s.Nodes() != 128 {
		t.Fatalf("system256 nodes = %d, want 128 (256 processors)", s.Nodes())
	}
	if s.Crossbars() != 48 {
		t.Fatalf("system256 crossbars = %d, want 48 (32 cluster + 16 central)", s.Crossbars())
	}
}

func TestSystem256IntraClusterRoutes(t *testing.T) {
	s := System256()
	p, err := s.Route(0, 7, NetworkA)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Hops) != 1 {
		t.Errorf("intra-cluster route = %d hops, want 1", len(p.Hops))
	}
}

func TestSystem256InterClusterRoutes(t *testing.T) {
	s := System256()
	// Node 0 (cluster 0) to node 127 (cluster 15).
	p, err := s.Route(0, 127, NetworkB)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Hops) != 3 {
		t.Fatalf("inter-cluster route = %d hops, want 3", len(p.Hops))
	}
	if len(p.RouteBytes) != 3 {
		t.Errorf("route bytes = %d, want 3 (one consumed per crossbar)", len(p.RouteBytes))
	}
	// Exactly two asynchronous crossings: cluster→central and
	// central→cluster.
	if p.AsyncLinks != 2 {
		t.Errorf("async links = %d, want 2", p.AsyncLinks)
	}
	if !p.Hops[1].AsyncIn || p.Hops[0].AsyncIn {
		t.Errorf("async hop marking wrong: %+v", p.Hops)
	}
}

// The paper's claim: "a logical connection between any two nodes involves
// at most only three crossbars."
func TestSystem256MaxThreeCrossbars(t *testing.T) {
	if testing.Short() {
		t.Skip("full pairwise sweep")
	}
	s := System256()
	max, err := s.MaxCrossbars()
	if err != nil {
		t.Fatal(err)
	}
	if max != 3 {
		t.Errorf("max crossbars over all pairs = %d, want 3", max)
	}
}

// Both networks of the duplicated system must reach every pair
// independently.
func TestSystem256DuplicatedNetworksDisjoint(t *testing.T) {
	s := System256()
	pa, err := s.Route(3, 90, NetworkA)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := s.Route(3, 90, NetworkB)
	if err != nil {
		t.Fatal(err)
	}
	// No crossbar appears in both paths: the planes are fully separate.
	seen := map[int]bool{}
	for _, h := range pa.Hops {
		seen[h.Xbar] = true
	}
	for _, h := range pb.Hops {
		if seen[h.Xbar] {
			t.Errorf("crossbar %d shared between network planes", h.Xbar)
		}
	}
}

func TestCluster8AllPairsOneCrossbar(t *testing.T) {
	c := Cluster8()
	max, err := c.MaxCrossbars()
	if err != nil {
		t.Fatal(err)
	}
	if max != 1 {
		t.Errorf("cluster8 max crossbars = %d, want 1", max)
	}
}

func TestMeshShape(t *testing.T) {
	m := Mesh(4, 2)
	if m.Nodes() != 8 || m.Crossbars() != 8 {
		t.Fatalf("mesh4x2: %d nodes, %d routers", m.Nodes(), m.Crossbars())
	}
	// Corner-to-corner route: 0 -> 7 needs 3+1 = 4 router hops minimum.
	p, err := m.Route(0, 7, NetworkA)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Hops) != 5 { // enter router 0, cross 3 easts... BFS shortest device path
		// Manhattan distance (3,1) => 4 inter-router hops => 5 routers.
		t.Errorf("corner route hops = %d, want 5", len(p.Hops))
	}
}

func TestMeshNeighborsOneRouterApart(t *testing.T) {
	m := Mesh(4, 4)
	p, err := m.Route(5, 6, NetworkA)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Hops) != 2 {
		t.Errorf("neighbour route = %d hops, want 2 routers", len(p.Hops))
	}
}

func TestMeshDiameterExceedsCrossbarHierarchy(t *testing.T) {
	if testing.Short() {
		t.Skip("pairwise sweep")
	}
	// 128 nodes each way: 16x8 mesh vs the Figure 5b hierarchy.
	mesh := Mesh(16, 8)
	maxMesh, err := mesh.MaxCrossbars()
	if err != nil {
		t.Fatal(err)
	}
	s256 := System256()
	maxHier, err := s256.MaxCrossbars()
	if err != nil {
		t.Fatal(err)
	}
	if maxMesh <= maxHier {
		t.Errorf("mesh max hops %d not above hierarchy %d", maxMesh, maxHier)
	}
	// 16x8 mesh diameter: (15+7) inter-router hops + source router = 23.
	if maxMesh != 23 {
		t.Errorf("mesh diameter = %d routers, want 23", maxMesh)
	}
}

func TestMeshPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Mesh(0,3) did not panic")
		}
	}()
	Mesh(0, 3)
}

// TestByName pins the --topo names: each builds its paper topology, and
// any other name (case and spacing included) is an error naming it.
func TestByName(t *testing.T) {
	for _, tc := range []struct {
		name         string
		nodes, xbars int
		wantErr      bool
	}{
		{"cluster8", 8, 2, false},
		{"system256", 128, 48, false},
		{"", 0, 0, true},
		{"mesh", 0, 0, true},
		{"System256", 0, 0, true},
		{" cluster8", 0, 0, true},
	} {
		got, err := ByName(tc.name)
		if tc.wantErr {
			if got != nil || err == nil || err.Error() != `unknown topology "`+tc.name+`"` {
				t.Errorf("ByName(%q) = %v, %v; want unknown-topology error", tc.name, got, err)
			}
			continue
		}
		if err != nil || got.Name() != tc.name || got.Nodes() != tc.nodes || got.Crossbars() != tc.xbars {
			t.Errorf("ByName(%q) = %v, %v; want %d nodes, %d crossbars", tc.name, got, err, tc.nodes, tc.xbars)
		}
	}
}
