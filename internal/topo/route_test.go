package topo

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"
)

// TestRouteTableDigest pins every route of the three standard topologies:
// each Route(s, d, net) for net ∈ {0, 1, 2} — including the errors for an
// unwired plane B on the mesh and the invalid network 2 — is hashed in
// order. The digests were produced by the original map-based router, so
// any change to the search (expansion order, tie-breaks, hop or async
// marking, error text) shows up here. The table is hashed twice on one
// Topology: the first pass fills the shared route table through Route,
// the second reads it back warm through each source's RouteRow.
func TestRouteTableDigest(t *testing.T) {
	cases := []struct {
		name    string
		topo    *Topology
		lookups int
		digest  string
	}{
		{"cluster8", Cluster8(), 192, "7796099b7a711327ef6ba19ddddee81a098f702948e329e27595219b0f658a12"},
		{"system256", System256(), 49152, "951d49a6990207ae6ef45e4ab83c5b7cfcdd323d74407649ca31d3743cfe517f"},
		{"mesh4x4", Mesh(4, 4), 768, "076677e741e3ae28eff2a2a9e191ebb3f436185567eab65dc489e2e8dad3fc1a"},
	}
	for _, c := range cases {
		for _, pass := range []string{"cold", "warm"} {
			h := sha256.New()
			n := 0
			for s := 0; s < c.topo.Nodes(); s++ {
				row := c.topo.RoutesFrom(s)
				for d := 0; d < c.topo.Nodes(); d++ {
					for net := 0; net <= 2; net++ {
						var path Path
						var err error
						if pass == "cold" {
							path, err = c.topo.Route(s, d, net)
						} else {
							var p *Path
							if p, err = row.Route(d, net); p != nil {
								path = *p
							}
						}
						fmt.Fprintf(h, "%d %d %d %+v %v\n", s, d, net, path, err)
						n++
					}
				}
			}
			if n != c.lookups {
				t.Errorf("%s %s: %d lookups, want %d", c.name, pass, n, c.lookups)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.digest {
				t.Errorf("%s %s: route table digest %s, want %s", c.name, pass, got, c.digest)
			}
		}
	}
}

// routeAll returns every System256 Route(s, d, net) outcome, rendered, in
// (s, d, net) order.
func routeAll(t *Topology) []string {
	n := t.Nodes()
	out := make([]string, 0, n*n*networks)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			for net := 0; net < networks; net++ {
				path, err := t.Route(s, d, net)
				out = append(out, fmt.Sprintf("%+v %v", path, err))
			}
		}
	}
	return out
}

// TestRouteConcurrentFirstFill races eight goroutines through every
// System256 (src, dst, network) lookup of a fresh topology, each starting
// at a different source so first fills collide across the table, and
// checks every result against a serially filled table. Run under -race it
// also checks that publication needs no lock.
func TestRouteConcurrentFirstFill(t *testing.T) {
	want := routeAll(System256())
	s := System256()
	n := s.Nodes()
	const workers = 8
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := make([]string, len(want))
			for k := 0; k < n; k++ {
				src := (k + w*n/workers) % n
				for d := 0; d < n; d++ {
					for net := 0; net < networks; net++ {
						path, err := s.Route(src, d, net)
						res[(src*n+d)*networks+net] = fmt.Sprintf("%+v %v", path, err)
					}
				}
			}
			got[w] = res
		}(w)
	}
	wg.Wait()
	for w, res := range got {
		for i := range want {
			if res[i] != want[i] {
				t.Fatalf("worker %d, lookup %d: %s, serial table has %s", w, i, res[i], want[i])
			}
		}
	}
}

// TestRouteAllocs pins the cost of a lookup: a warm one allocates
// nothing, and a cold fill of a route of up to inlineHops crossbars is one
// allocation (the table entry, which holds Hops and RouteBytes inline and
// keeps the search scratch on the stack).
func TestRouteAllocs(t *testing.T) {
	s := System256()
	if p, err := s.Route(0, 127, NetworkB); err != nil || len(p.Hops) != 3 {
		t.Fatalf("Route(0, 127, B) = %+v, %v; want a three-crossbar path", p, err)
	}
	warm := testing.AllocsPerRun(100, func() {
		if _, err := s.Route(0, 127, NetworkB); err != nil {
			t.Fatal(err)
		}
	})
	if warm != 0 {
		t.Errorf("warm Route allocates %.1f times, want 0", warm)
	}
	row := s.RoutesFrom(0)
	warm = testing.AllocsPerRun(100, func() {
		if _, err := row.Route(127, NetworkB); err != nil {
			t.Fatal(err)
		}
	})
	if warm != 0 {
		t.Errorf("warm RouteRow.Route allocates %.1f times, want 0", warm)
	}
	cold := testing.AllocsPerRun(100, func() {
		s.ForgetRoute(0, 127, NetworkB)
		if _, err := s.Route(0, 127, NetworkB); err != nil {
			t.Fatal(err)
		}
	})
	if cold > 1 {
		t.Errorf("cold three-crossbar Route allocates %.1f times, want <= 1", cold)
	}
}

// TestRouteRowRejectsOutOfRange pins that a row lookup outside the table
// returns Route's argument errors, and a nil path, instead of indexing
// past its slots; a cached error (Mesh plane B is unwired) is nil too.
func TestRouteRowRejectsOutOfRange(t *testing.T) {
	c := Cluster8()
	for _, q := range []struct{ src, dst, net int }{{-1, 0, NetworkA}, {8, 0, NetworkA}, {0, -1, NetworkA}, {0, 8, NetworkB}, {0, 1, 2}, {0, 1, -1}} {
		row := c.RoutesFrom(q.src)
		got, gotErr := row.Route(q.dst, q.net)
		_, wantErr := c.Route(q.src, q.dst, q.net)
		if gotErr == nil || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got != nil {
			t.Errorf("RoutesFrom(%d).Route(%d, %d) = %v, %v; want nil and Route's %v", q.src, q.dst, q.net, got, gotErr, wantErr)
		}
	}
	m := Mesh(2, 2)
	row := m.RoutesFrom(0)
	for pass := 0; pass < 2; pass++ { // cold fill, then the cached error
		if got, err := row.Route(1, NetworkB); err == nil || got != nil {
			t.Errorf("mesh RoutesFrom(0).Route(1, B) = %v, %v; want nil and the unwired-plane error", got, err)
		}
	}
}

// TestRouteRowSharesEntries pins that row lookups return the route
// table's own entry: every lookup of one (src, dst, network) yields the
// same *Path, equal to Route's value.
func TestRouteRowSharesEntries(t *testing.T) {
	s := System256()
	row := s.RoutesFrom(3)
	p, err := row.Route(90, NetworkB)
	if err != nil {
		t.Fatal(err)
	}
	again := s.RoutesFrom(3)
	q, err := again.Route(90, NetworkB)
	if err != nil || q != p {
		t.Fatalf("second lookup = %p, %v; want the shared entry %p", q, err, p)
	}
	if v, _ := s.Route(3, 90, NetworkB); fmt.Sprintf("%+v", v) != fmt.Sprintf("%+v", *p) {
		t.Errorf("Route = %+v, RouteRow.Route = %+v", v, *p)
	}
}

// TestRewiringAfterRoutePanics pins that a sealed topology refuses new
// wiring: its cached routes would silently go stale.
func TestRewiringAfterRoutePanics(t *testing.T) {
	for _, c := range []struct {
		name string
		op   func(*Topology)
	}{
		{"Connect", func(tp *Topology) { _ = tp.Connect(1, NetworkB, tp.Nodes(), 9, false) }},
		{"AddCrossbar", func(tp *Topology) { tp.AddCrossbar("late") }},
	} {
		tp := Cluster8()
		if _, err := tp.Route(0, 1, NetworkA); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after the first Route did not panic", c.name)
				}
			}()
			c.op(tp)
		}()
	}
	// Seal alone freezes the wiring too.
	tp := New("t", 2)
	tp.Seal()
	defer func() {
		if recover() == nil {
			t.Error("AddCrossbar after Seal did not panic")
		}
	}()
	tp.AddCrossbar("X")
}

var sinkPath Path

// systemPair maps iteration i onto the i-th (src, dst, net) lookup of a
// cycle over every ordered pair of distinct System256 nodes on both
// planes.
func systemPair(i, n int) (src, dst, net int) {
	k := i % (2 * n * (n - 1))
	net = k % 2
	k /= 2
	src, dst = k/(n-1), k%(n-1)
	if dst >= src {
		dst++
	}
	return src, dst, net
}

// BenchmarkRouteSystem256 cycles every ordered pair of distinct System256
// nodes on both planes through the uncached search, so each iteration is
// a cold breadth-first search.
func BenchmarkRouteSystem256(b *testing.B) {
	s := System256()
	n := s.Nodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst, net := systemPair(i, n)
		p, err := s.SearchRoute(src, dst, net)
		if err != nil {
			b.Fatal(err)
		}
		sinkPath = p
	}
}

// BenchmarkRouteSystem256Warm is the same cycle through Route on a filled
// route table: each iteration is a warm lookup.
func BenchmarkRouteSystem256Warm(b *testing.B) {
	s := System256()
	n := s.Nodes()
	for i := 0; i < 2*n*(n-1); i++ {
		src, dst, net := systemPair(i, n)
		if _, err := s.Route(src, dst, net); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst, net := systemPair(i, n)
		p, err := s.Route(src, dst, net)
		if err != nil {
			b.Fatal(err)
		}
		sinkPath = p
	}
}
