// Command pmstat runs the open-loop multi-tenant traffic engine
// (internal/traffic) once and prints what service each tenant got from
// the shared fabric.
//
// --format table (the default) renders windowed time-series telemetry:
// the per-tenant SLO burn-rate table (violations per window, the burn
// rate against each tenant's error budget and the cumulative budget
// consumption) and the per-tenant latency decomposition table
// (arbitration wait, wire transfer, plane-down detection and
// retry/failover overhead per window). It answers *when* a tenant got
// its service — the view that localizes a mid-run fault to the windows
// it degraded. --format csv prints the same series as CSV. --format
// report prints the whole-run service report instead: offered versus
// delivered traffic, delivered-latency p50/p99/p999 and each tenant's
// SLO verdict with the exact violation count.
//
// Usage:
//
//	pmstat --mix default --topo system256 --seed 1
//	pmstat --mix default --run heat                   (one tenant in isolation)
//	pmstat --campaign link-cut --faults 8 --topo system256
//	pmstat --window-us 50 --engine par --shards 4
//	pmstat --format csv
//	pmstat --format report --mix bursty --topo system256 --horizon-us 400
//	pmstat --format report --mix default --metrics
//	pmstat --list
//
// --campaign puts the named deterministic mid-run fault scenario under
// the run (the same schedule the matching pmfault --traffic ladder row
// draws). --metrics appends the run's full metrics dump. A flag the
// chosen format ignores (--window-us under report, --metrics under csv,
// --faults without --campaign) is a usage error. Output is a pure
// function of the flags and byte-identical across --engine seq|par and
// aligned shard counts; CI pins the System256 default-mix scenario and
// the default-mix report under both engines.
package main

import (
	"flag"
	"fmt"
	"strings"

	"powermanna/internal/cli"
	"powermanna/internal/fault"
	"powermanna/internal/sim"
	"powermanna/internal/traffic"
)

func main() {
	c := cli.New("pmstat", cli.Seed|cli.Shards|cli.Topo)
	var (
		mixFlag      = flag.String("mix", "default", "tenant mix (see --list)")
		runFlag      = flag.String("run", "", "run a single tenant of the mix in isolation")
		campaignFlag = flag.String("campaign", "", "mid-run fault scenario: link-cut (empty = healthy machine)")
		faultsFlag   = flag.Int("faults", 8, "fault count for --campaign")
		horizonUS    = flag.Int64("horizon-us", int64(traffic.DefaultHorizon/sim.Microsecond), "offered-load window in microseconds")
		windowUS     = flag.Int64("window-us", 0, "telemetry window width in microseconds (0 = horizon/32, rounded up to 1us)")
		formatFlag   = flag.String("format", "table", "output format: table, csv or report")
		metricsFlag  = flag.Bool("metrics", false, "append the run's full metrics dump")
		listOnly     = flag.Bool("list", false, "list mix names and exit")
	)
	c.Parse()
	if *campaignFlag == "" {
		c.NoEffect("without --campaign", "--faults")
	}
	switch *formatFlag {
	case "table":
	case "csv":
		c.NoEffect("with --format csv", "--metrics")
	case "report":
		c.NoEffect("with --format report", "--window-us")
	default:
		c.Check(fmt.Errorf("unknown format %q (want table, csv or report)", *formatFlag))
	}

	if *listOnly {
		c.Alone("--list")
		for _, m := range traffic.Mixes() {
			fmt.Printf("%-10s  %s\n", m.Name, m.Description)
		}
		return
	}

	mix, err := traffic.MixByName(*mixFlag)
	c.Check(err)
	if *runFlag != "" {
		mix, err = mix.Solo(*runFlag)
		c.Check(err)
	}
	if *campaignFlag != "" && *campaignFlag != "link-cut" {
		c.Check(fmt.Errorf("unknown campaign %q (want link-cut)", *campaignFlag))
	}

	horizon := sim.Time(*horizonUS) * sim.Microsecond
	eng, err := traffic.New(mix, traffic.Options{
		Seed:      c.Seed,
		Topology:  c.Topo,
		Horizon:   horizon,
		Engine:    c.Engine,
		Shards:    c.Shards,
		Telemetry: true,
		Window:    sim.Time(*windowUS) * sim.Microsecond,
	})
	c.Check(err)
	var events []fault.Event
	if *campaignFlag != "" {
		events = fault.ApplyTrafficScenario(eng.Network(), c.Topo, *faultsFlag, horizon, c.Seed)
	}
	res, err := eng.Run()
	c.Check(err)

	var b strings.Builder
	switch *formatFlag {
	case "csv":
		b.WriteString(res.SeriesCSV())
	case "report":
		b.WriteString(res.Render())
	default:
		fmt.Fprintf(&b, "### pmstat %s — %s\n", res.Mix.Name, res.Mix.Description)
		fmt.Fprintf(&b, "topology %s, seed %d, horizon %dus, window %dus, %d tenants\n",
			c.Topo.Name(), c.Seed, int64(res.Horizon/sim.Microsecond), int64(res.Window/sim.Microsecond), len(res.Mix.Tenants))
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
	}
	if *metricsFlag {
		b.WriteByte('\n')
		b.WriteString(res.Registry.Render())
	}
	fmt.Print(b.String())
}
