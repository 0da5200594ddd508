// Command pmbench regenerates the tables and figures of the paper's
// evaluation section (plus the ablations) and prints them as text tables
// and ASCII plots.
//
// Usage:
//
//	pmbench                  # run everything at quick sweep sizes
//	pmbench -full            # full sweeps (the paper's plotted ranges)
//	pmbench -exp fig9,fig12  # selected experiments
//	pmbench -list            # list experiment IDs
//	pmbench -engine par      # independent series one psim shard each, same output
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"powermanna"
	"powermanna/internal/psim"
)

func main() {
	var (
		expFlag  = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		full     = flag.Bool("full", false, "run full sweeps instead of quick ones")
		listOnly = flag.Bool("list", false, "list experiment IDs and exit")
		asJSON   = flag.Bool("json", false, "emit machine-readable JSON instead of tables and plots")
		engine   = flag.String("engine", "seq", "event engine: seq, or par to run the independent series of fig6a-fig8b, nodescale and faultsweep one psim shard each (byte-identical output)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "pmbench: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	if *listOnly {
		for _, id := range powermanna.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}

	eng, err := psim.ParseKind(*engine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmbench: %v\n", err)
		os.Exit(1)
	}
	opt := powermanna.ExperimentOptions{Quick: !*full, Engine: eng}
	all := powermanna.ExperimentIDs()
	ids := all
	if *expFlag != "all" {
		// Every ID is checked before any experiment runs, so a bad list
		// is a usage error with nothing on stdout.
		ids = strings.Split(*expFlag, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
			if !slices.Contains(all, ids[i]) {
				fmt.Fprintf(os.Stderr, "pmbench: unknown experiment %q in -exp %q (valid: %s)\n",
					ids[i], *expFlag, strings.Join(all, ","))
				flag.Usage()
				os.Exit(2)
			}
		}
	}

	for _, id := range ids {
		// Wall-clock harness timing goes to stderr only: stdout is the
		// results channel and must be a pure function of the model, so two
		// runs with the same flags are byte-identical (the determinism
		// contract; see DESIGN.md).
		start := time.Now()
		r, err := powermanna.RunExperiment(id, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *asJSON {
			b, err := r.JSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println(string(b))
		} else {
			fmt.Println(r.Render())
		}
		fmt.Fprintf(os.Stderr, "(%s took %.1fs)\n", id, time.Since(start).Seconds())
	}
}
