package analysis

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"sort"
	"strings"
)

// This file renders the shard-safety audit behind `pmlint --report`: a
// deterministic classification of every internal/ package against the
// requirements of the parallel (conservative-PDES) engine. The report is
// golden-pinned by TestReportMatchesGolden
// (testdata/pmlint_report.golden), so it doubles as the literal
// work-list for the PDES refactor: a package may only move from clean
// to needs-queue-mediation or violations through a reviewed golden
// update.

// shardAnalyzers is the shard-safety family the audit runs.
func shardAnalyzers() []Analyzer {
	return []Analyzer{SharedState{}, Purity{}, Timeflow{}, Hotpath{}}
}

// PackageAudit is the shard-safety classification of one internal/
// package.
type PackageAudit struct {
	// Rel is the module-relative import path (e.g. "internal/sim").
	Rel string
	// Class is "clean", "needs-queue-mediation" or "violations".
	Class string
	// Roots counts event-handler entry points (callbacks scheduled
	// through internal/sim's queue).
	Roots int
	// MutableVars counts package-level variables written somewhere in the
	// package: the state inventory the PDES refactor must queue-mediate
	// or localize.
	MutableVars int
	// HotpathFuncs counts //pmlint:hotpath-annotated functions.
	HotpathFuncs int
	// Allowed counts shard-safety diagnostics suppressed by an audited
	// //pmlint:allow directive.
	Allowed int
	// Violations are the unsuppressed shard-safety diagnostics, with
	// module-relative file paths.
	Violations []Diagnostic
}

// AuditPackages classifies every internal/ package in pkgs for shard
// safety. The result is deterministic: packages sort by Rel, violations
// by position, and all paths are module-relative.
func AuditPackages(pkgs []*Package) []PackageAudit {
	family := shardAnalyzers()
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name()] = true
	}
	var audits []PackageAudit
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Rel, "internal/") {
			continue
		}
		a := PackageAudit{Rel: pkg.Rel}
		g := BuildCallGraph(pkg)
		a.Roots = len(g.HandlerRoots())
		a.MutableVars = len(g.MutableVars())
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && hasHotpathDirective(fd) {
					a.HotpathFuncs++
				}
			}
		}
		sup, _ := suppressions(pkg, known)
		for _, an := range family {
			for _, d := range an.Check(pkg) {
				if sup.allows(an.Name(), d.Pos) {
					a.Allowed++
					continue
				}
				d.Pos.Filename = pkg.Rel + "/" + filepath.Base(d.Pos.Filename)
				a.Violations = append(a.Violations, d)
			}
		}
		sort.Slice(a.Violations, func(i, j int) bool {
			x, y := a.Violations[i], a.Violations[j]
			if x.Pos.Filename != y.Pos.Filename {
				return x.Pos.Filename < y.Pos.Filename
			}
			if x.Pos.Line != y.Pos.Line {
				return x.Pos.Line < y.Pos.Line
			}
			return x.Message < y.Message
		})
		switch {
		case len(a.Violations) > 0:
			a.Class = "violations"
		case a.MutableVars > 0:
			a.Class = "needs-queue-mediation"
		default:
			a.Class = "clean"
		}
		audits = append(audits, a)
	}
	sort.Slice(audits, func(i, j int) bool { return audits[i].Rel < audits[j].Rel })
	return audits
}

// RenderReport renders the audit as the stable text format pinned by
// testdata/pmlint_report.golden.
func RenderReport(audits []PackageAudit) string {
	var b strings.Builder
	b.WriteString("pmlint shard-safety audit\n")
	b.WriteString("analyzers: sharedstate purity timeflow hotpath\n")
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-28s %-22s %6s %8s %8s %8s\n",
		"package", "class", "roots", "mutable", "hotpath", "allowed")
	total := map[string]int{}
	for _, a := range audits {
		fmt.Fprintf(&b, "%-28s %-22s %6d %8d %8d %8d\n",
			a.Rel, a.Class, a.Roots, a.MutableVars, a.HotpathFuncs, a.Allowed)
		total[a.Class]++
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "packages: %d clean, %d needs-queue-mediation, %d violations\n",
		total["clean"], total["needs-queue-mediation"], total["violations"])
	var violations []Diagnostic
	for _, a := range audits {
		violations = append(violations, a.Violations...)
	}
	if len(violations) == 0 {
		b.WriteString("violations: none\n")
	} else {
		b.WriteString("violations:\n")
		for _, d := range violations {
			fmt.Fprintf(&b, "  %s\n", d.String())
		}
	}
	return b.String()
}
