// Command pmtraffic runs the open-loop multi-tenant traffic engine
// (internal/traffic) once, on a healthy machine, and prints the
// per-tenant service report: offered versus delivered traffic,
// delivered-latency p50/p99/p999 and each tenant's SLO verdict with the
// exact violation count. It is the multi-tenant counterpart to pmearth
// and pmheat — not "how fast does one program run" but "what service do
// concurrent workloads get from the shared fabric".
//
// Usage:
//
//	pmtraffic --mix default --seed 1
//	pmtraffic --mix bursty --topo system256 --horizon-us 400
//	pmtraffic --topo system256 --engine par --shards 4
//	pmtraffic --mix default --metrics
//	pmtraffic --list
//
// --engine selects sequential or parallel execution of the partitioned
// datapath; stdout is byte-identical across engines and aligned shard
// counts, and a pure function of the flags. For the same mix under a
// fault sweep, use pmfault --traffic.
package main

import (
	"flag"
	"fmt"
	"os"

	"powermanna/internal/metrics"
	"powermanna/internal/psim"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
	"powermanna/internal/traffic"
)

func main() {
	var (
		mixFlag     = flag.String("mix", "default", "tenant mix (see --list)")
		topoFlag    = flag.String("topo", "cluster8", "topology: cluster8 or system256")
		seed        = flag.Int64("seed", 1, "seed for every arrival process")
		horizonUS   = flag.Int64("horizon-us", int64(traffic.DefaultHorizon/sim.Microsecond), "offered-load window in microseconds")
		engineFlag  = flag.String("engine", "seq", "event engine: seq (one shard) or par (sharded; byte-identical output)")
		shardsFlag  = flag.Int("shards", 0, "psim shard count under --engine par (0 = 1; must align with the topology's leaf groups)")
		metricsFlag = flag.Bool("metrics", false, "append the run's full metrics dump")
		listOnly    = flag.Bool("list", false, "list mix names and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "pmtraffic: unexpected argument %q\n", flag.Arg(0))
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
		fmt.Fprintf(os.Stderr, "pmtraffic: %v\n", err)
		os.Exit(1)
	}
	engine, err := psim.ParseKind(*engineFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmtraffic: %v\n", err)
		os.Exit(1)
	}
	if *shardsFlag > 0 && engine != psim.Par {
		fmt.Fprintf(os.Stderr, "pmtraffic: --shards %d requires --engine par\n", *shardsFlag)
		flag.Usage()
		os.Exit(2)
	}
	t, err := topo.ByName(*topoFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmtraffic: %v\n", err)
		os.Exit(1)
	}

	var reg *metrics.Registry
	if *metricsFlag {
		reg = metrics.NewRegistry()
	}
	eng, err := traffic.New(mix, traffic.Options{
		Seed:     *seed,
		Topology: t,
		Horizon:  sim.Time(*horizonUS) * sim.Microsecond,
		Engine:   engine,
		Shards:   *shardsFlag,
		Metrics:  reg,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmtraffic: %v\n", err)
		os.Exit(1)
	}
	res, err := eng.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmtraffic: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(res.Render())
	if reg != nil {
		fmt.Println()
		fmt.Print(reg.Render())
	}
}
