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
//
// Under -engine par the independent series of fig6a-fig8b, nodescale
// and faultsweep each run as one psim shard; the output is
// byte-identical to the default.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"powermanna"
	"powermanna/internal/cli"
)

func main() {
	c := cli.New("pmbench", cli.Engine)
	var (
		expFlag  = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		full     = flag.Bool("full", false, "run full sweeps instead of quick ones")
		listOnly = flag.Bool("list", false, "list experiment IDs and exit")
		asJSON   = flag.Bool("json", false, "emit machine-readable JSON instead of tables and plots")
	)
	c.Parse()

	all := powermanna.ExperimentIDs()
	if *listOnly {
		c.Alone("-list")
		fmt.Println(strings.Join(all, "\n"))
		return
	}
	ids := all
	if *expFlag != "all" {
		// Every ID is checked before any experiment runs, so a bad list
		// is a usage error with nothing on stdout.
		ids = strings.Split(*expFlag, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
			if !slices.Contains(all, ids[i]) {
				c.Usagef("unknown experiment %q in -exp %q (valid: %s)", ids[i], *expFlag, strings.Join(all, ","))
			}
		}
	}

	opt := powermanna.ExperimentOptions{Quick: !*full, Engine: c.Engine}
	for _, id := range ids {
		// Wall-clock harness timing goes to stderr only: stdout is the
		// results channel and must be a pure function of the model, so two
		// runs with the same flags are byte-identical (the determinism
		// contract; see DESIGN.md).
		start := time.Now()
		r, err := powermanna.RunExperiment(id, opt)
		c.Check(err)
		if *asJSON {
			b, err := r.JSON()
			c.Check(err)
			fmt.Println(string(b))
		} else {
			fmt.Println(r.Render())
		}
		fmt.Fprintf(os.Stderr, "(%s took %.1fs)\n", id, time.Since(start).Seconds())
	}
}
