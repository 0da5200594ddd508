package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"powermanna/internal/psim"
	"powermanna/internal/stats"
)

var quick = Options{Quick: true}

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	want := []string{"table1", "fig5", "fig6a", "fig6b", "fig7a", "fig7b",
		"fig8a", "fig8b", "fig9", "fig10", "fig11", "fig12",
		"nodescale", "blocking", "dispatcher", "smartni", "fifosweep", "duallink",
		"faultsweep"}
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(ids), len(want))
	}
	for i, id := range want {
		if ids[i] != id {
			t.Errorf("ids[%d] = %q, want %q", i, ids[i], id)
		}
		if _, ok := ByID(id); !ok {
			t.Errorf("ByID(%q) missing", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID accepted unknown id")
	}
}

func TestTable1(t *testing.T) {
	r := Table1(quick)
	if r.Table == nil {
		t.Fatal("no table")
	}
	out := r.Render()
	for _, want := range []string{"PowerMANNA", "MPC620", "180 MHz", "2048 Kbyte", "switched"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 missing %q", want)
		}
	}
}

func TestFaultSweep(t *testing.T) {
	r := FaultSweep(quick)
	if r.Table == nil {
		t.Fatal("no table")
	}
	out := r.Render()
	for _, want := range []string{"faults", "retried", "inflation", "no message lost"} {
		if !strings.Contains(out, want) {
			t.Errorf("faultsweep missing %q:\n%s", want, out)
		}
	}
	// The engine knob must not change a single byte (the psim
	// equivalence contract, here at the experiment-harness level).
	par := FaultSweep(Options{Quick: true, Engine: psim.Par})
	if got, want := par.Render(), r.Render(); got != want {
		t.Errorf("faultsweep differs across engines:\nseq:\n%s\npar:\n%s", want, got)
	}
}

func TestFig5(t *testing.T) {
	r := Fig5Topology(quick)
	if r.Table == nil {
		t.Fatal("no table")
	}
	joined := strings.Join(r.Notes, "\n")
	if strings.Contains(joined, "MISMATCH") {
		t.Errorf("topology claim failed: %s", joined)
	}
}

func seriesByName(f *stats.Figure, name string) *stats.Series {
	for i := range f.Series {
		if f.Series[i].Name == name {
			return &f.Series[i]
		}
	}
	return nil
}

// peak returns the series' largest Y value (0 for an empty series).
func peak(s *stats.Series) float64 {
	max := 0.0
	for _, p := range s.Points {
		if p.Y > max {
			max = p.Y
		}
	}
	return max
}

func TestFig6Shapes(t *testing.T) {
	r := quickRun("fig6a")
	if r.Figure == nil || len(r.Figure.Series) != 4 {
		t.Fatalf("fig6a series = %d, want 4 machines", len(r.Figure.Series))
	}
	// Every machine produced a nonempty, positive curve.
	for _, s := range r.Figure.Series {
		if len(s.Points) < 5 || peak(&s) <= 0 {
			t.Errorf("%s: degenerate HINT curve", s.Name)
		}
	}
	// INT: the SUN trails both PowerMANNA and the 180 MHz PC.
	ri := quickRun("fig6b")
	sun := seriesByName(ri.Figure, "SUN-Ultra1")
	pm := seriesByName(ri.Figure, "PowerMANNA")
	pc := seriesByName(ri.Figure, "PC-PII-180")
	if sun == nil || pm == nil || pc == nil {
		t.Fatal("missing series")
	}
	if peak(sun) >= peak(pm) || peak(sun) >= peak(pc) {
		t.Errorf("INT peaks: sun %.3g should trail pm %.3g and pc %.3g", peak(sun), peak(pm), peak(pc))
	}
}

func TestFig7Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	a := quickRun("fig7a")
	b := quickRun("fig7b")
	pmA := seriesByName(a.Figure, "PowerMANNA")
	pmB := seriesByName(b.Figure, "PowerMANNA")
	if pmA == nil || pmB == nil {
		t.Fatal("missing PowerMANNA series")
	}
	// Transposed peak clearly above naive at the largest quick size.
	lastA := pmA.Points[len(pmA.Points)-1].Y
	lastB := pmB.Points[len(pmB.Points)-1].Y
	if lastB <= lastA {
		t.Errorf("transposed %.1f not above naive %.1f on PowerMANNA", lastB, lastA)
	}
	// Transposed: PowerMANNA leads the field.
	for _, s := range b.Figure.Series {
		if s.Name == "PowerMANNA" {
			continue
		}
		if peak(&s) >= peak(pmB) {
			t.Errorf("fig7b: %s (%.1f) not below PowerMANNA (%.1f)", s.Name, peak(&s), peak(pmB))
		}
	}
}

func TestFig8Speedups(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	for _, r := range []Result{quickRun("fig8a"), quickRun("fig8b")} {
		pm := seriesByName(r.Figure, "PowerMANNA")
		if pm == nil {
			t.Fatal("missing PowerMANNA series")
		}
		for _, p := range pm.Points {
			if p.Y < 1.85 || p.Y > 2.05 {
				t.Errorf("%s: PowerMANNA speedup at N=%g is %.2f, want ~2.0", r.ID, p.X, p.Y)
			}
		}
		pc := seriesByName(r.Figure, "PC-PII-180")
		if pc == nil {
			t.Fatal("missing PC series")
		}
		for _, p := range pc.Points {
			if p.Y >= 2.0 {
				t.Errorf("%s: PC speedup %.2f should stay below 2", r.ID, p.Y)
			}
		}
	}
}

func TestFig9Through12(t *testing.T) {
	for _, r := range []Result{Fig9(quick), Fig10(quick), Fig11(quick), Fig12(quick)} {
		if r.Figure == nil || len(r.Figure.Series) != 3 {
			t.Fatalf("%s: want 3 systems, got %d", r.ID, len(r.Figure.Series))
		}
		for _, n := range r.Notes {
			if strings.Contains(n, "MISMATCH") {
				t.Errorf("%s: %s", r.ID, n)
			}
		}
	}
}

func TestNodeScalability(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	r := quickRun("nodescale")
	sp := seriesByName(r.Figure, "speedup")
	if sp == nil || len(sp.Points) != 6 {
		t.Fatal("missing speedup series")
	}
	// Four processors without significant hindrance (Section 2).
	at4 := sp.Points[3].Y
	if at4 < 3.5 {
		t.Errorf("speedup at 4 CPUs = %.2f, want >= 3.5", at4)
	}
	// Beyond four the curve must flatten: marginal gain of CPUs 5 and 6
	// clearly below 1 per added CPU.
	at6 := sp.Points[5].Y
	if at6-at4 > 1.4 {
		t.Errorf("speedup 4->6 gained %.2f, expected saturation", at6-at4)
	}
	// The binding resource is the snoop serialization, not memory.
	snoop := seriesByName(r.Figure, "snoop util x10")
	mem := seriesByName(r.Figure, "mem util x10")
	if snoop.Points[5].Y < mem.Points[5].Y {
		t.Errorf("at 6 CPUs snoop util (%.2f) should exceed memory util (%.2f)",
			snoop.Points[5].Y/10, mem.Points[5].Y/10)
	}
}

func TestFIFOSweepMonotone(t *testing.T) {
	r := FIFOSweep(quick)
	s := r.Figure.Series[0]
	if len(s.Points) < 4 {
		t.Fatal("too few sweep points")
	}
	if s.Points[len(s.Points)-1].Y <= s.Points[1].Y {
		t.Errorf("bigger FIFOs did not help: %v", s.Points)
	}
}

func TestDualLinkDoubles(t *testing.T) {
	r := DualLink(quick)
	single := seriesByName(r.Figure, "PowerMANNA uni")
	dual := seriesByName(r.Figure, "PowerMANNA-dual uni")
	if single == nil || dual == nil {
		t.Fatal("missing series")
	}
	s := single.Points[len(single.Points)-1].Y
	d := dual.Points[len(dual.Points)-1].Y
	if d < 1.7*s {
		t.Errorf("dual link %.1f not ~2x single %.1f", d, s)
	}
}

func TestRenderIncludesExpectation(t *testing.T) {
	r := Fig9(quick)
	out := r.Render()
	if !strings.Contains(out, "Paper:") || !strings.Contains(out, "fig9") {
		t.Error("render missing header")
	}
}

func TestDispatcherAblation(t *testing.T) {
	r := DispatcherAblation(quick)
	ooo := seriesByName(r.Figure, "out-of-order (MPC620)")
	ino := seriesByName(r.Figure, "in-order")
	if ooo == nil || ino == nil {
		t.Fatal("missing series")
	}
	// Deeper pipelines help; out-of-order never loses to in-order.
	if ooo.Points[2].Y >= ooo.Points[0].Y {
		t.Errorf("depth 4 (%.1f) not below depth 1 (%.1f)", ooo.Points[2].Y, ooo.Points[0].Y)
	}
	for i := range ooo.Points {
		if ooo.Points[i].Y > ino.Points[i].Y+0.01 {
			t.Errorf("out-of-order (%.2f) worse than in-order (%.2f) at depth %g",
				ooo.Points[i].Y, ino.Points[i].Y, ooo.Points[i].X)
		}
	}
}

func TestSmartNI(t *testing.T) {
	r := SmartNI(quick)
	if r.Table == nil {
		t.Fatal("no table")
	}
	out := r.Render()
	for _, want := range []string{"doorbell", "NIC processor", "route setup", "TOTAL"} {
		if !strings.Contains(out, want) {
			t.Errorf("smartni missing %q", want)
		}
	}
	var ratio float64
	for _, n := range r.Notes {
		fmt.Sscanf(n, "PCI-NIC / PowerMANNA latency ratio at 8 bytes: %fx", &ratio)
	}
	if ratio < 1.8 || ratio > 3.0 {
		t.Errorf("ratio = %.2f, want near the paper's 2.33", ratio)
	}
}

func TestBlockingBehavior(t *testing.T) {
	r := BlockingBehavior(quick)
	if r.Table == nil {
		t.Fatal("no table")
	}
	// The paper's claim: mesh blocks, the hierarchy barely does.
	found := false
	for _, n := range r.Notes {
		var ratio float64
		if _, err := fmt.Sscanf(n, "mesh mean latency %fx", &ratio); err == nil {
			found = true
			if ratio < 1.5 {
				t.Errorf("mesh/hierarchy latency ratio = %.2f, want > 1.5", ratio)
			}
		}
	}
	if !found {
		t.Error("latency ratio note missing")
	}
}

func TestJSONOutput(t *testing.T) {
	r := Fig9(quick)
	b, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]interface{}
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded["id"] != "fig9" {
		t.Errorf("id = %v", decoded["id"])
	}
	if decoded["figure"] == nil {
		t.Error("figure missing")
	}
	// A table experiment round-trips too.
	tb, err := Table1(quick).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(tb, &decoded); err != nil || decoded["table"] == nil {
		t.Errorf("table JSON broken: %v", err)
	}
}

func TestBlockingSeedDeterminism(t *testing.T) {
	// The determinism contract: a Result is a pure function of
	// (experiment, Options). Same seed, same bytes.
	a := BlockingBehavior(Options{Quick: true, Seed: 7})
	b := BlockingBehavior(Options{Quick: true, Seed: 7})
	if a.Render() != b.Render() {
		t.Errorf("two runs with seed 7 differ:\n%s\n----\n%s", a.Render(), b.Render())
	}
	// The zero value means DefaultSeed, so published tables reproduce.
	c := BlockingBehavior(Options{Quick: true})
	d := BlockingBehavior(Options{Quick: true, Seed: DefaultSeed})
	if c.Render() != d.Render() {
		t.Error("zero-value Options does not reproduce the DefaultSeed run")
	}
}
