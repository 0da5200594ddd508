// Command pmlint runs the determinism-contract static-analysis suite
// (internal/analysis) over the module and prints file:line:col
// diagnostics.
//
// Usage:
//
//	pmlint ./...             # analyze the whole module
//	pmlint ./internal/...    # analyze a subtree
//	pmlint ./internal/sim    # analyze one package
//	pmlint -list             # list analyzers and exit
//	pmlint -only determinism ./...
//	pmlint -report ./...     # shard-safety audit of internal/ packages
//
// The -report mode emits the deterministic shard-safety audit pinned by
// internal/analysis/testdata/pmlint_report.golden: every internal/
// package classified as clean, needs-queue-mediation or violations —
// the work-list for the parallel simulation engine.
//
// Exit codes are machine-readable: 0 means the tree is clean, 1 means at
// least one diagnostic was reported (or, with -report, at least one
// package classifies as violations), 2 means the tool itself failed
// (bad usage, unparseable or untypeable source).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"powermanna/internal/analysis"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		list   = flag.Bool("list", false, "list analyzers and exit")
		only   = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		report = flag.Bool("report", false, "emit the shard-safety audit instead of diagnostics")
	)
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-14s %s\n", a.Name(), a.Doc())
		}
		return 0
	}

	analyzers := analysis.All()
	if *only != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := analysis.ByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "pmlint: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	loader, err := analysis.NewLoader(".")
	var pkgs []*analysis.Package
	if err == nil {
		pkgs, err = loader.Load(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmlint:", err)
		return 2
	}

	if *report {
		audits := analysis.AuditPackages(pkgs)
		fmt.Print(analysis.RenderReport(audits))
		for _, a := range audits {
			if a.Class == "violations" {
				return 1
			}
		}
		return 0
	}

	diags := analysis.Run(pkgs, analyzers)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "pmlint: %d issue(s)\n", len(diags))
		return 1
	}
	return 0
}
