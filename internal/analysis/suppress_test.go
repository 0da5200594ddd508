package analysis

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadSnippet type-checks one source file in a temp dir so the
// suppression scanner can be exercised on exact line layouts.
func loadSnippet(t *testing.T, src string) *Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := newLoader(t).LoadDir(dir, "powermanna/internal/snip", "internal/snip")
	if err != nil {
		t.Fatalf("loading snippet: %v", err)
	}
	return pkg
}

func snippetKnown() map[string]bool {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name()] = true
	}
	return known
}

// pos builds the position allows() would receive for a diagnostic on the
// given 1-based line of the snippet.
func snippetPos(pkg *Package, line int) token.Position {
	return token.Position{Filename: filepath.Join(pkg.Dir, "p.go"), Line: line}
}

func TestAllowEndOfLine(t *testing.T) {
	pkg := loadSnippet(t, `package snip

var x int //pmlint:allow hotpath end-of-line form
`)
	set, diags := suppressions(pkg, snippetKnown())
	if len(diags) != 0 {
		t.Fatalf("unexpected directive diagnostics: %v", diags)
	}
	if !set.allows("hotpath", snippetPos(pkg, 3)) {
		t.Errorf("end-of-line directive does not cover its own line")
	}
	if set.allows("hotpath", snippetPos(pkg, 5)) {
		t.Errorf("directive leaks two lines down")
	}
	if set.allows("sharedstate", snippetPos(pkg, 3)) {
		t.Errorf("directive covers an analyzer it does not name")
	}
}

func TestAllowLineAbove(t *testing.T) {
	pkg := loadSnippet(t, `package snip

//pmlint:allow hotpath line-above form
var x int
`)
	set, diags := suppressions(pkg, snippetKnown())
	if len(diags) != 0 {
		t.Fatalf("unexpected directive diagnostics: %v", diags)
	}
	if !set.allows("hotpath", snippetPos(pkg, 4)) {
		t.Errorf("line-above directive does not cover the next line")
	}
}

func TestAllowStackedDirectives(t *testing.T) {
	pkg := loadSnippet(t, `package snip

//pmlint:allow hotpath first of a stacked pair
//pmlint:allow sharedstate second of a stacked pair
var x int
`)
	set, diags := suppressions(pkg, snippetKnown())
	if len(diags) != 0 {
		t.Fatalf("unexpected directive diagnostics: %v", diags)
	}
	for _, name := range []string{"hotpath", "sharedstate"} {
		if !set.allows(name, snippetPos(pkg, 5)) {
			t.Errorf("stacked directive for %s does not cover the line below the run", name)
		}
	}
}

func TestAllowGapBreaksStack(t *testing.T) {
	pkg := loadSnippet(t, `package snip

//pmlint:allow hotpath stranded above a gap

var x int
`)
	set, diags := suppressions(pkg, snippetKnown())
	if len(diags) != 0 {
		t.Fatalf("unexpected directive diagnostics: %v", diags)
	}
	if set.allows("hotpath", snippetPos(pkg, 5)) {
		t.Errorf("directive covers across a blank line; runs must be consecutive")
	}
}

func TestAllowUnknownAnalyzer(t *testing.T) {
	pkg := loadSnippet(t, `package snip

//pmlint:allow hotpaths typo in the analyzer name
var x int
`)
	set, diags := suppressions(pkg, snippetKnown())
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "unknown analyzer hotpaths") {
		t.Fatalf("want one unknown-analyzer diagnostic, got %v", diags)
	}
	if set.allows("hotpath", snippetPos(pkg, 4)) {
		t.Errorf("misspelled directive still suppresses")
	}
}

func TestAllowMissingReason(t *testing.T) {
	pkg := loadSnippet(t, `package snip

//pmlint:allow hotpath
var x int
`)
	set, diags := suppressions(pkg, snippetKnown())
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "missing the mandatory reason") {
		t.Fatalf("want one missing-reason diagnostic, got %v", diags)
	}
	if set.allows("hotpath", snippetPos(pkg, 4)) {
		t.Errorf("reasonless directive still suppresses")
	}
}

func TestAllowMissingAnalyzer(t *testing.T) {
	pkg := loadSnippet(t, `package snip

//pmlint:allow
var x int
`)
	_, diags := suppressions(pkg, snippetKnown())
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "malformed directive") {
		t.Fatalf("want one malformed-directive diagnostic, got %v", diags)
	}
}

// TestHotpathDirectiveIsNotAllow pins that the //pmlint:hotpath marker is
// a separate directive family and never parsed as a malformed allow.
func TestHotpathDirectiveIsNotAllow(t *testing.T) {
	pkg := loadSnippet(t, `package snip

//pmlint:hotpath
func f() {}
`)
	set, diags := suppressions(pkg, snippetKnown())
	if len(diags) != 0 {
		t.Fatalf("//pmlint:hotpath reported as a bad allow directive: %v", diags)
	}
	if len(set) != 0 {
		t.Fatalf("//pmlint:hotpath recorded as a suppression: %v", set)
	}
}
