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
// becomes the offered-load horizon. --mix applies only under --traffic,
// and --campaign, --messages and --payload only without it; setting one
// where it has no effect is a usage error (exit 2).
//
// --metrics appends the highest-rate row's deterministic metrics dump
// (internal/metrics): send outcome counters, latency and detection
// histograms, receive waits, crossbar arbitration waits, and for EARTH
// workloads the runtime's token instruments.
//
// --engine selects the event engine: seq runs every degradation row on
// the sequential scheduler, par gives each row its own shard of the
// internal/psim parallel engine. stdout is a pure function of the flags
// and byte-identical under both engines; CI pins each campaign's seed-1
// table against testdata/ under both.
package main

import (
	"flag"
	"fmt"

	"powermanna/internal/cli"
	"powermanna/internal/fault"
	"powermanna/internal/metrics"
	"powermanna/internal/sim"
	"powermanna/internal/traffic"
)

func main() {
	c := cli.New("pmfault", cli.Seed|cli.Shards|cli.WorkloadTopo)
	var (
		campaignFlag = flag.String("campaign", "link-cut", "campaign name (see --list)")
		messages     = flag.Int("messages", fault.DefaultMessages, "messages per degradation row")
		payload      = flag.Int("payload", fault.DefaultPayloadBytes, "payload bytes per message")
		windowUS     = flag.Int64("window-us", int64(fault.DefaultWindow/sim.Microsecond), "simulated span in microseconds traffic spreads over")
		metricsFlag  = flag.Bool("metrics", false, "append the highest-rate row's metrics dump (latency/detection histograms, send outcomes, arb waits)")
		trafficFlag  = flag.Bool("traffic", false, "run the open-loop multi-tenant traffic sweep instead of a campaign (per-tenant SLO percentiles per fault count)")
		mixFlag      = flag.String("mix", "default", "tenant mix for --traffic (see pmstat --list)")
		listOnly     = flag.Bool("list", false, "list campaign names and exit")
	)
	c.Parse()
	if *trafficFlag {
		c.NoEffect("with --traffic", "--campaign", "--messages", "--payload")
	} else {
		c.NoEffect("without --traffic", "--mix")
	}

	if *listOnly {
		c.Alone("--list")
		for _, camp := range fault.Campaigns() {
			fmt.Printf("%-18s  %s\n", camp.Name, camp.Description)
		}
		for _, camp := range fault.AppCampaigns() {
			fmt.Printf("%-18s  %s\n", camp.Name, camp.Description)
		}
		return
	}

	// An unset --topo stays nil so a campaign's own default topology can
	// apply (central-cut needs System256's central stage).
	opt := fault.Options{
		Seed:         c.Seed,
		Topology:     c.Topo,
		Messages:     *messages,
		PayloadBytes: *payload,
		Window:       sim.Time(*windowUS) * sim.Microsecond,
		Engine:       c.Engine,
		Shards:       c.Shards,
	}
	if *metricsFlag {
		opt.Metrics = metrics.NewRegistry()
	}
	// report prints a run's table and, under --metrics, the registry dump.
	report := func(res interface{ Render() string }, err error) {
		c.Check(err)
		fmt.Print(res.Render())
		if opt.Metrics != nil {
			fmt.Println()
			fmt.Print(opt.Metrics.Render())
		}
	}

	if *trafficFlag {
		mix, err := traffic.MixByName(*mixFlag)
		c.Check(err)
		// --window-us, when explicitly set, is the offered-load horizon;
		// otherwise the traffic engine's default applies.
		var horizon sim.Time
		if c.Set("window-us") {
			horizon = opt.Window
		}
		report(fault.RunTraffic(mix, horizon, opt))
	} else if camp, ok := fault.CampaignByName(*campaignFlag); ok {
		report(fault.Run(camp, opt))
	} else if camp, ok := fault.AppCampaignByName(*campaignFlag); ok {
		report(fault.RunApp(camp, opt))
	} else {
		c.Check(fmt.Errorf("unknown campaign %q (try --list)", *campaignFlag))
	}
}
