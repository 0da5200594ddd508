// Command pmstat renders windowed time-series telemetry for a traffic
// run: the per-tenant SLO burn-rate table (violations per window, the
// burn rate against each tenant's error budget and the cumulative
// budget consumption) and the per-tenant latency decomposition table
// (arbitration wait, wire transfer, plane-down detection and
// retry/failover overhead per window). Where pmtraffic answers "what
// service did each tenant get over the whole run", pmstat answers
// *when* it got it — the view that localizes a mid-run fault to the
// windows it degraded.
//
// Usage:
//
//	pmstat --mix default --topo system256 --seed 1
//	pmstat --mix default --run heat                   (one tenant in isolation)
//	pmstat --campaign link-cut --faults 8 --topo system256
//	pmstat --window-us 50 --engine par --shards 4
//	pmstat --format csv
//	pmstat --list
//
// --campaign puts the named deterministic mid-run fault scenario under
// the run (the same schedule the matching pmfault --traffic ladder row
// draws). Output is a pure function of the flags and byte-identical
// across --engine seq|par and aligned shard counts; CI pins the
// System256 default-mix scenario under both engines.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"powermanna/internal/fault"
	"powermanna/internal/psim"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
	"powermanna/internal/traffic"
)

func main() {
	var (
		mixFlag      = flag.String("mix", "default", "tenant mix (see --list)")
		runFlag      = flag.String("run", "", "run a single tenant of the mix in isolation")
		campaignFlag = flag.String("campaign", "", "mid-run fault scenario: link-cut (empty = healthy machine)")
		faultsFlag   = flag.Int("faults", 8, "fault count for --campaign")
		topoFlag     = flag.String("topo", "cluster8", "topology: cluster8 or system256")
		seed         = flag.Int64("seed", 1, "seed for arrival processes and the fault scenario")
		horizonUS    = flag.Int64("horizon-us", int64(traffic.DefaultHorizon/sim.Microsecond), "offered-load window in microseconds")
		windowUS     = flag.Int64("window-us", 0, "telemetry window width in microseconds (0 = horizon/32, rounded up to 1us)")
		engineFlag   = flag.String("engine", "seq", "event engine: seq (one shard) or par (sharded; byte-identical output)")
		shardsFlag   = flag.Int("shards", 0, "psim shard count under --engine par (0 = 1; must align with the topology's leaf groups)")
		formatFlag   = flag.String("format", "table", "output format: table or csv")
		listOnly     = flag.Bool("list", false, "list mix names and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "pmstat: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	if *listOnly {
		for _, m := range traffic.Mixes() {
			fmt.Printf("%-10s  %s\n", m.Name, m.Description)
		}
		return
	}

	mix, err := traffic.MixByName(*mixFlag)
	if err != nil {
		fail(err)
	}
	if *runFlag != "" {
		if mix, err = mix.Solo(*runFlag); err != nil {
			fail(err)
		}
	}
	engine, err := psim.ParseKind(*engineFlag)
	if err != nil {
		fail(err)
	}
	if *shardsFlag > 0 && engine != psim.Par {
		fmt.Fprintf(os.Stderr, "pmstat: --shards %d requires --engine par\n", *shardsFlag)
		flag.Usage()
		os.Exit(2)
	}
	t, err := topo.ByName(*topoFlag)
	if err != nil {
		fail(err)
	}
	if *campaignFlag != "" && *campaignFlag != "link-cut" {
		fail(fmt.Errorf("unknown campaign %q (want link-cut)", *campaignFlag))
	}
	if *formatFlag != "table" && *formatFlag != "csv" {
		fail(fmt.Errorf("unknown format %q (want table or csv)", *formatFlag))
	}

	horizon := sim.Time(*horizonUS) * sim.Microsecond
	eng, err := traffic.New(mix, traffic.Options{
		Seed:      *seed,
		Topology:  t,
		Horizon:   horizon,
		Engine:    engine,
		Shards:    *shardsFlag,
		Telemetry: true,
		Window:    sim.Time(*windowUS) * sim.Microsecond,
	})
	if err != nil {
		fail(err)
	}
	var events []fault.Event
	if *campaignFlag != "" {
		events = fault.ApplyTrafficScenario(eng.Network(), t, *faultsFlag, horizon, *seed)
	}
	res, err := eng.Run()
	if err != nil {
		fail(err)
	}

	if *formatFlag == "csv" {
		fmt.Print(res.SeriesCSV())
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "### pmstat %s — %s\n", res.Mix.Name, res.Mix.Description)
	fmt.Fprintf(&b, "topology %s, seed %d, horizon %dus, window %dus, %d tenants\n",
		t.Name(), *seed, int64(res.Horizon/sim.Microsecond), int64(res.Window/sim.Microsecond), len(res.Mix.Tenants))
	if *campaignFlag != "" {
		fmt.Fprintf(&b, "\nfault scenario %s at %d faults:\n", *campaignFlag, *faultsFlag)
		if len(events) == 0 {
			b.WriteString("  (none)\n")
		}
		for _, e := range events {
			fmt.Fprintf(&b, "  %s\n", e)
		}
	}
	b.WriteByte('\n')
	b.WriteString(res.BurnTable().Render())
	b.WriteByte('\n')
	b.WriteString(res.DecompTable().Render())
	fmt.Print(b.String())
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "pmstat: %v\n", err)
	os.Exit(1)
}
