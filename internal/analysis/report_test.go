package analysis

import (
	"os"
	"testing"
)

// TestReportMatchesGolden pins the shard-safety audit of this repository.
// The golden is the gate for the parallel simulation engine: a package may
// only change class here deliberately, with the golden regenerated via
//
//	go run ./cmd/pmlint --report ./... > internal/analysis/testdata/pmlint_report.golden
//
// and the diff reviewed in the same commit.
func TestReportMatchesGolden(t *testing.T) {
	got := RenderReport(AuditPackages(sharedModule(t)))
	want, err := os.ReadFile("testdata/pmlint_report.golden")
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if got != string(want) {
		t.Errorf("report drifted from testdata/pmlint_report.golden;\nregenerate with: go run ./cmd/pmlint --report ./...\ngot:\n%s", got)
	}
}

// TestReportDeterministic renders the audit twice from independent loads
// — the shared one, already audited and analyzed by the other tests, and
// a fresh one — and requires byte-identical output: the report is pinned,
// so any map-order or position nondeterminism would make the golden flaky.
func TestReportDeterministic(t *testing.T) {
	a := RenderReport(AuditPackages(sharedModule(t)))
	pkgs, err := newLoader(t).Load([]string{"./..."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	b := RenderReport(AuditPackages(pkgs))
	if a != b {
		t.Errorf("two renders differ:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestAuditClassification exercises the class ladder on the shard fixture,
// which has real sharedstate violations and mutable package state.
func TestAuditClassification(t *testing.T) {
	pkg := loadShardFixture(t)
	audits := AuditPackages([]*Package{pkg})
	if len(audits) != 1 {
		t.Fatalf("got %d audits, want 1", len(audits))
	}
	a := audits[0]
	if a.Class != "violations" {
		t.Errorf("shard fixture classified %q, want violations", a.Class)
	}
	if a.Roots != 5 {
		t.Errorf("shard fixture has %d roots, want 5", a.Roots)
	}
	if a.MutableVars == 0 {
		t.Errorf("shard fixture reports no mutable package vars")
	}
	if len(a.Violations) == 0 {
		t.Errorf("shard fixture reports no violations")
	}
}
