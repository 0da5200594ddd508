package analysis

import (
	"strings"
	"testing"
)

// loadShardFixture loads the sharedstate fixture, which doubles as the
// call-graph test bed: five scheduled handlers, one shared counter.
func loadShardFixture(t *testing.T) *Package {
	t.Helper()
	pkg, err := newLoader(t).LoadDir("testdata/src/shard", "powermanna/internal/shard", "internal/shard")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	return pkg
}

// TestCallGraphRoots checks that every callback scheduled through
// sim.Scheduler becomes a handler root, and nothing else does.
func TestCallGraphRoots(t *testing.T) {
	g := BuildCallGraph(loadShardFixture(t))
	roots := g.HandlerRoots()
	if len(roots) != 5 {
		var names []string
		for _, r := range roots {
			names = append(names, r.Name)
		}
		t.Fatalf("got %d handler roots (%s), want 5", len(roots), strings.Join(names, ", "))
	}
	for _, r := range roots {
		if r.Lit == nil {
			t.Errorf("root %s is not a literal; all scheduled callbacks in the fixture are closures", r.Name)
		}
	}
	for _, n := range g.nodes {
		if n.Fn != nil && n.HandlerRoot {
			t.Errorf("declared function %s marked as root; only scheduled callbacks should be", n.Name)
		}
	}
}

// TestCallGraphEngineRoots checks the parallel-engine schedule sites:
// callbacks scheduled through the sim.Engine interface, the sim.Queue
// a scheduler embeds and a psim shard all root; the //pmlint:root
// directive promotes a declared worker loop; a lookalike At method on
// an unrelated type roots nothing.
func TestCallGraphEngineRoots(t *testing.T) {
	pkg, err := newLoader(t).LoadDir("testdata/src/pqueue", "powermanna/internal/pqueue", "internal/pqueue")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	g := BuildCallGraph(pkg)
	roots := map[string]bool{}
	for _, r := range g.HandlerRoots() {
		roots[r.Name] = true
	}
	for _, want := range []string{"ifaceHandler", "queueHandler", "shardHandler", "drain"} {
		if !roots[want] {
			t.Errorf("%s is not a handler root; roots = %v", want, roots)
		}
	}
	if roots["notAHandler"] {
		t.Errorf("lookalike At callback notAHandler rooted; the matcher must check the receiver's package")
	}
	if len(roots) != 4 {
		t.Errorf("got %d roots (%v), want 4", len(roots), roots)
	}
}

// TestCallGraphReachability checks that queue edges are omitted: the
// scheduling function does not reach the handlers it schedules, while a
// handler reaches its callees.
func TestCallGraphReachability(t *testing.T) {
	g := BuildCallGraph(loadShardFixture(t))
	var setup *CGNode
	for _, n := range g.nodes {
		if n.Name == "setup" {
			setup = n
		}
	}
	if setup == nil {
		t.Fatal("no node named setup")
	}
	for _, n := range g.Reachable(setup) {
		if n.HandlerRoot {
			t.Errorf("setup reaches scheduled handler %s: the queue edge must be omitted", n.Name)
		}
	}
	root := g.HandlerRoots()[0]
	found := false
	for _, n := range g.Reachable(root) {
		if n.Name == "bump" {
			found = true
		}
	}
	if !found {
		t.Errorf("handler %s does not reach bump over call edges", root.Name)
	}
}

// TestCallGraphMutableVars checks the mutable package-state inventory:
// written vars in declaration order, read-only tables excluded.
func TestCallGraphMutableVars(t *testing.T) {
	g := BuildCallGraph(loadShardFixture(t))
	var names []string
	for _, v := range g.MutableVars() {
		names = append(names, v.Name())
	}
	if got, want := strings.Join(names, ","), "inflight,solo"; got != want {
		t.Errorf("MutableVars = %s, want %s", got, want)
	}
}

// TestCallGraphDeterministic pins the ordering contract: two builds of
// the same package produce identical node, edge and root sequences.
func TestCallGraphDeterministic(t *testing.T) {
	pkg := loadShardFixture(t)
	render := func(g *CallGraph) string {
		var b strings.Builder
		for _, n := range g.nodes {
			b.WriteString(n.Name)
			for _, c := range n.calls {
				b.WriteString(" ->" + c.Name)
			}
			if n.HandlerRoot {
				b.WriteString(" [root]")
			}
			b.WriteString("\n")
		}
		return b.String()
	}
	a, b := render(BuildCallGraph(pkg)), render(BuildCallGraph(pkg))
	if a != b {
		t.Errorf("two builds differ:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "bump") {
		t.Errorf("graph misses bump:\n%s", a)
	}
}
