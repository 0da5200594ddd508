// Package analysis is the stdlib-only static-analysis suite behind
// cmd/pmlint. It enforces the simulator's determinism contract: every
// table and figure the module regenerates must be a pure function of the
// model and its configuration, bit-identical across machines and runs.
//
// The suite walks the module with go/build, parses with go/parser and
// type-checks each package once with go/types (load.go) — no third-party
// analysis framework — and ships nine analyzers:
//
//   - determinism: wall-clock reads, global math/rand, order-dependent
//     map iteration, and concurrency in the single-threaded sim core
//   - cycleaccount: magic integer literals added to cycle/latency values
//   - errcheck: silently discarded error returns
//   - docexport: undocumented exported identifiers in internal packages
//   - layering: direct netsim.Network.Send calls outside internal/netsim
//     (every layer sends through the fault-aware Transport)
//
// plus the shard-safety family built on the package call graph
// (callgraph.go), which proves the runway for the parallel PDES engine:
//
//   - sharedstate: mutable state reachable from two event-handler roots
//     without queue mediation
//   - purity: event-ordering functions (Less/Compare/Cmp/Hash, sort
//     closures) must be pure
//   - timeflow: sim.Time advances monotonically and never lives in
//     package-level state
//   - hotpath: allocation lint for //pmlint:hotpath send-path functions
//     (interface boxing, map iteration, capturing closures)
//
// A diagnostic can be suppressed with a directive on the same line or the
// line directly above:
//
//	//pmlint:allow <analyzer> <reason>
//
// The reason is mandatory; a directive without one is itself reported.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one finding, addressed by file position.
type Diagnostic struct {
	// Pos locates the offending node.
	Pos token.Position
	// Analyzer names the rule that fired (e.g. "determinism").
	Analyzer string
	// Message says what is wrong and how to fix it.
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one rule set run over a loaded package.
type Analyzer interface {
	// Name is the key used in reports and //pmlint:allow directives.
	Name() string
	// Doc is a one-line description for pmlint -list.
	Doc() string
	// Check reports all findings in pkg (suppressions are filtered by
	// the driver, not the analyzer).
	Check(pkg *Package) []Diagnostic
}

// All returns the full suite in reporting order.
func All() []Analyzer {
	return []Analyzer{
		Determinism{},
		CycleAccount{},
		ErrCheck{},
		DocExport{},
		Layering{},
		SharedState{},
		Purity{},
		Timeflow{},
		Hotpath{},
	}
}

// ByName resolves an analyzer from the suite, for pmlint -only.
func ByName(name string) (Analyzer, bool) {
	for _, a := range All() {
		if a.Name() == name {
			return a, true
		}
	}
	return nil, false
}

// Run applies the analyzers to every package, filters //pmlint:allow
// suppressions, and returns the surviving diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []Analyzer) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name()] = true
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		sup, supDiags := suppressions(pkg, known)
		out = append(out, supDiags...)
		for _, a := range analyzers {
			for _, d := range a.Check(pkg) {
				if sup.allows(a.Name(), d.Pos) {
					continue
				}
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return out
}
