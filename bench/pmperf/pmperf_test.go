package main

import (
	"regexp"
	"testing"
)

// TestQuickWorkloadsSeqEqualsPar2 runs every workload at smoke-test size
// in-process under both engines: the outputs must be byte-identical and
// every count a workload reports must be a declared per-layer metric.
func TestQuickWorkloadsSeqEqualsPar2(t *testing.T) {
	declared := map[string]bool{}
	for _, d := range perLayerDefs {
		declared[d.name] = true
	}
	for _, w := range workloads {
		var digests [2]string
		for i, par := range []bool{false, true} {
			res, err := runWorker(w, runConfig{seed: 1, par: par, quick: true}, newSpanRecorder(), false)
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, engineName(par), err)
			}
			digests[i] = res.Digest
			for k := range res.Counts {
				if !declared[k] {
					t.Errorf("%s reports undeclared count %q", w.name, k)
				}
			}
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: seq digest %s != par2 digest %s", w.name, digests[0], digests[1])
		}
	}
}

// TestNamesMatchBenchmarkJSON pins the workloads and metrics pmperf
// emits to the ones BENCHMARK.json declares, in order, with units and
// directions.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	var sp spec
	if err := readJSON("../../BENCHMARK.json", &sp); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	var names []string
	check := func(kind string, i int, name, unit, better string, want metricDef) {
		t.Helper()
		names = append(names, name)
		if name != want.name || unit != want.unit || better != want.better {
			t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, pmperf has %s/%s/%s",
				kind, i, name, unit, better, want.name, want.unit, want.better)
		}
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, pmperf %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		names = append(names, w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, pmperf %q", i, w.Name, workloads[i].name)
		}
	}
	if len(sp.EndToEnd) != len(endToEndDefs) || len(sp.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, pmperf %d+%d",
			len(sp.EndToEnd), len(sp.PerLayer), len(endToEndDefs), len(perLayerDefs))
	}
	for i, m := range sp.EndToEnd {
		check("end_to_end", i, m.Name, m.Unit, m.Better, endToEndDefs[i])
	}
	for i, m := range sp.PerLayer {
		check("per_layer", i, m.Name, m.Unit, m.Better, perLayerDefs[i])
	}
	seen := map[string]bool{}
	for _, n := range names {
		if !valid.MatchString(n) || len(n) > 64 {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+ of at most 64", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	// The emitted metric sets are exactly the declared ones.
	if got := endToEnd(nil); len(got) != len(endToEndDefs) {
		t.Errorf("endToEnd emits %d metrics, want %d", len(got), len(endToEndDefs))
	}
	for _, w := range workloads {
		if got := layerValues(w, tracedPass{}, nil); len(got) != len(perLayerDefs) {
			t.Errorf("%s: layerValues emits %d metrics, want %d", w.name, len(got), len(perLayerDefs))
		}
	}
}

// TestDigestsPinEveryWorkload keeps the pinned seed-1 digests in step
// with the workload list.
func TestDigestsPinEveryWorkload(t *testing.T) {
	pins, err := readDigests("../testdata/digests.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(pins[w.name]) != 64 {
			t.Errorf("no SHA-256 pinned for %s", w.name)
		}
	}
	if len(pins) != len(workloads) {
		t.Errorf("%d digests pinned for %d workloads", len(pins), len(workloads))
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the method the spread rule uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{7}, 7, 7},
		{[]float64{2, 9}, 0.25, 10.75},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := func(m float64) stat { return stat{Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	for _, c := range []struct {
		a, b   stat
		better string
		bound  float64
		want   string
	}{
		{steady(1), steady(1.05), "lower", 0.1, "same"},
		{steady(1), steady(1.2), "lower", 0.1, "worse"},
		{steady(1), steady(0.8), "lower", 0.1, "better"},
		{steady(1), steady(0.8), "higher", 0.1, "worse"},
		{steady(1), stat{Median: 1, Q1: 0.8, Q3: 1.2}, "lower", 0.1, "unresolved"},
		{stat{Median: 3}, stat{Median: 3}, "lower", 0, "same"},
		{stat{Median: 3}, stat{Median: 3.01}, "lower", 0, "worse"},
	} {
		if got := verdict(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("verdict(%v, %v, %s, %v) = %s, want %s", c.a, c.b, c.better, c.bound, got, c.want)
		}
	}
}
