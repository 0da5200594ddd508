// Command pmfault runs deterministic fault-injection campaigns against
// the duplicated interconnect and prints a degradation table: delivered,
// retried (plane-B failover) and failed message counts plus latency
// inflation, per injected fault count. It is how this reproduction
// answers "what does the machine do when a link dies?" — the question
// the paper's duplicated communication system (Section 4) exists for.
//
// Besides the synthetic-traffic campaigns it runs application campaigns
// (heat-linkcut, allreduce-linkcut): a real workload SPMD-style over the
// node-partitioned message-passing layer while plane-A uplinks die,
// reporting makespan inflation. Under --engine par --shards N the
// workload itself runs partitioned across N psim shards; output stays
// byte-identical to --engine seq at every aligned shard count.
//
// Usage:
//
//	pmfault --campaign link-cut --seed 1
//	pmfault --campaign heat-linkcut --seed 1
//	pmfault --campaign heat-linkcut --topo system256 --engine par --shards 4
//	pmfault --campaign mixed --topo system256 --messages 800
//	pmfault --campaign link-cut --metrics
//	pmfault --campaign link-cut --engine par
//	pmfault --traffic --topo system256 --engine par --shards 4
//	pmfault --list
//
// --traffic swaps the campaign for the open-loop multi-tenant traffic
// sweep (internal/traffic): the named mix (--mix, default "default")
// offers seeded arrival-process load from every node while plane-A
// links die, and the table reports each tenant's delivered-latency
// p50/p99/p999 against its SLO per fault count. --window-us, when set,
// becomes the offered-load horizon.
//
// --metrics appends the highest-rate row's deterministic metrics dump
// (internal/metrics): send outcome counters, latency and detection
// histograms, receive waits, crossbar arbitration waits, and for EARTH
// workloads the runtime's token instruments.
//
// --engine selects the event engine: seq runs every degradation row on
// the sequential scheduler, par gives each row its own shard of the
// internal/psim parallel engine. The two are byte-identical by
// construction — CI runs the goldens under both.
//
// stdout is a pure function of the flags: two runs with identical flags
// are byte-identical. CI pins `--campaign link-cut --seed 1` and
// `--campaign heat-linkcut --seed 1` against golden tables in testdata/.
package main

import (
	"flag"
	"fmt"
	"os"

	"powermanna/internal/fault"
	"powermanna/internal/metrics"
	"powermanna/internal/psim"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
	"powermanna/internal/traffic"
)

// printMetrics appends the registry dump to the campaign output;
// a nil registry (no --metrics) prints nothing.
func printMetrics(reg *metrics.Registry) {
	if reg != nil {
		fmt.Println()
		fmt.Print(reg.Render())
	}
}

func main() {
	var (
		campaignFlag = flag.String("campaign", "link-cut", "campaign name (see --list)")
		seed         = flag.Int64("seed", fault.DefaultSeed, "seed for fault schedule and traffic")
		topoFlag     = flag.String("topo", "cluster8", "topology: cluster8 or system256")
		messages     = flag.Int("messages", fault.DefaultMessages, "messages per degradation row")
		payload      = flag.Int("payload", fault.DefaultPayloadBytes, "payload bytes per message")
		windowUS     = flag.Int64("window-us", int64(fault.DefaultWindow/sim.Microsecond), "simulated span in microseconds traffic spreads over")
		metricsFlag  = flag.Bool("metrics", false, "append the highest-rate row's metrics dump (latency/detection histograms, send outcomes, arb waits)")
		engineFlag   = flag.String("engine", "seq", "event engine: seq (sequential) or par (one psim shard per degradation row; byte-identical output)")
		shardsFlag   = flag.Int("shards", 0, "psim shard count for partitioned app workloads under --engine par (0 = 1; must align with the topology's leaf groups)")
		trafficFlag  = flag.Bool("traffic", false, "run the open-loop multi-tenant traffic sweep instead of a campaign (per-tenant SLO percentiles per fault count)")
		mixFlag      = flag.String("mix", "default", "tenant mix for --traffic (see pmtraffic --list)")
		listOnly     = flag.Bool("list", false, "list campaign names and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "pmfault: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	engine, err := psim.ParseKind(*engineFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmfault: %v\n", err)
		os.Exit(1)
	}
	if *shardsFlag > 0 && engine != psim.Par {
		fmt.Fprintf(os.Stderr, "pmfault: --shards %d requires --engine par\n", *shardsFlag)
		flag.Usage()
		os.Exit(2)
	}

	if *listOnly {
		for _, c := range fault.Campaigns() {
			fmt.Printf("%-18s  %s\n", c.Name, c.Description)
		}
		for _, c := range fault.AppCampaigns() {
			fmt.Printf("%-18s  %s\n", c.Name, c.Description)
		}
		return
	}

	// An unset --topo stays nil so a campaign's own default topology can
	// apply (central-cut needs System256's central stage); an explicit
	// flag always wins.
	topoSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "topo" {
			topoSet = true
		}
	})
	var t *topo.Topology
	if topoSet {
		if t, err = topo.ByName(*topoFlag); err != nil {
			fmt.Fprintf(os.Stderr, "pmfault: %v\n", err)
			os.Exit(1)
		}
	}
	opt := fault.Options{
		Seed:         *seed,
		Topology:     t,
		Messages:     *messages,
		PayloadBytes: *payload,
		Window:       sim.Time(*windowUS) * sim.Microsecond,
		Engine:       engine,
		Shards:       *shardsFlag,
	}
	var reg *metrics.Registry
	if *metricsFlag {
		reg = metrics.NewRegistry()
		opt.Metrics = reg
	}

	if *trafficFlag {
		mix, err := traffic.MixByName(*mixFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pmfault: %v\n", err)
			os.Exit(1)
		}
		// --window-us, when explicitly set, is the offered-load horizon;
		// otherwise the traffic engine's default applies.
		var horizon sim.Time
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "window-us" {
				horizon = opt.Window
			}
		})
		res, err := fault.RunTraffic(mix, horizon, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pmfault: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(res.Render())
		printMetrics(reg)
		return
	}

	if c, ok := fault.CampaignByName(*campaignFlag); ok {
		res, err := fault.Run(c, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pmfault: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(res.Render())
		printMetrics(reg)
		return
	}
	if c, ok := fault.AppCampaignByName(*campaignFlag); ok {
		res, err := fault.RunApp(c, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pmfault: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(res.Render())
		printMetrics(reg)
		return
	}
	fmt.Fprintf(os.Stderr, "pmfault: unknown campaign %q (try --list)\n", *campaignFlag)
	os.Exit(1)
}
