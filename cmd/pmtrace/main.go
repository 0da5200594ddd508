// Command pmtrace runs a seeded workload on the simulator with the
// event recorder attached and exports the resulting timeline, either as
// Chrome trace_event JSON (load in chrome://tracing or Perfetto) or as
// a plain-text top-N span profile. It is the observability front end of
// internal/trace: every span it emits is placed on the simulated clock,
// so two runs with identical flags are byte-identical.
//
// Workloads (--run):
//
//	pingpong   seeded message ping-pong between random rank pairs over
//	           the MPL on the split-phase datapath of the duplicated
//	           interconnect (no OS stream; see fib for OS contention)
//	fib        the EARTH split-phase fib benchmark (fibers, SU service,
//	           tokens over both planes), with the bursty OS stream
//	           contending on plane B
//	dispatch   the MPC620 split-transaction bus dispatcher under a
//	           seeded two-master load
//
// Alternatively --campaign runs a fault-injection campaign from
// internal/fault at its highest fault rate with tracing attached, so
// the timeline shows failover attempts, plane-down cache hits and
// stuck-output spans next to the traffic that felt them.
//
// Beyond export, pmtrace analyzes the recording in place (--format
// utilization, critpath) and compares two seeded runs (--format diff
// reruns the same workload under --seed2 and aligns the timelines):
// per-track busy-fraction series, the longest dependency chain bounding
// the makespan, and the shifted/added/removed events plus utilization
// deltas between the runs.
//
// Usage:
//
//	pmtrace --run pingpong --seed 1 > trace.json
//	pmtrace --run fib --format profile
//	pmtrace --run pingpong --format utilization --window-us 20
//	pmtrace --run pingpong --format critpath
//	pmtrace --run pingpong --format diff --seed 1 --seed2 2
//	pmtrace --campaign link-cut --seed 1 --messages 60 > fault.json
//	pmtrace --campaign central-cut --format profile
//	pmtrace --campaign heat-linkcut --format diff
//	pmtrace --campaign link-cut --engine par --seed 1
//
// --engine selects the event engine for --campaign runs (seq or par,
// one psim shard per degradation row); the recorded timeline is
// byte-identical either way, which CI checks against the goldens.
//
// A flag the run ignores is a usage error: --run with --campaign,
// --engine without it, --messages under --run fib or dispatch, --topo
// under --run dispatch, and --seed2, --window-us or --top outside
// --format diff, utilization or profile.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"powermanna/internal/cli"
	"powermanna/internal/dispatch"
	"powermanna/internal/earth"
	"powermanna/internal/fault"
	"powermanna/internal/mpl"
	"powermanna/internal/netsim"
	"powermanna/internal/psim"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
	"powermanna/internal/trace"
)

// fibN is the fib argument for --run fib: big enough to spread fibers
// over every Cluster8 node, small enough to keep traces reviewable.
const fibN = 10

func main() {
	c := cli.New("pmtrace", cli.Seed|cli.Engine|cli.WorkloadTopo)
	var (
		runFlag      = flag.String("run", "pingpong", "workload: pingpong, fib or dispatch")
		campaignFlag = flag.String("campaign", "", "trace a fault campaign's highest rate instead of --run (see pmfault --list)")
		formatFlag   = flag.String("format", "chrome", "output format: chrome, profile, utilization, critpath or diff")
		seed2        = flag.Int64("seed2", 2, "second seed for --format diff (the B run)")
		messages     = flag.Int("messages", 0, "messages per campaign row or ping-pong rounds (0 = default)")
		topN         = flag.Int("top", trace.DefaultProfileTopN, "span names per track in --format profile")
		windowUS     = flag.Int64("window-us", 0, "utilization window in microseconds (0 = horizon/16)")
	)
	c.Parse()
	if *campaignFlag != "" {
		c.NoEffect("with --campaign", "--run")
	} else {
		c.NoEffect("without --campaign", "--engine")
		switch *runFlag {
		case "fib":
			c.NoEffect("with --run fib", "--messages")
		case "dispatch":
			c.NoEffect("with --run dispatch", "--messages", "--topo")
		}
	}
	for _, f := range [][2]string{{"--seed2", "diff"}, {"--window-us", "utilization"}, {"--top", "profile"}} {
		if *formatFlag != f[1] {
			c.NoEffect("without --format "+f[1], f[0])
		}
	}

	record := func(seed int64) *trace.Recorder {
		rec := trace.NewRecorder()
		if *campaignFlag != "" {
			c.Check(runCampaign(rec, *campaignFlag, seed, c.Topo, *messages, c.Engine))
		} else {
			c.Check(runWorkload(rec, *runFlag, seed, c.Topo, *messages))
		}
		return rec
	}
	rec := record(c.Seed)

	out := bufio.NewWriter(os.Stdout)
	var err error
	switch *formatFlag {
	case "chrome":
		err = trace.WriteChrome(out, rec)
	case "profile":
		err = trace.WriteProfile(out, rec, *topN)
	case "utilization":
		err = trace.WriteUtilization(out, rec, sim.Time(*windowUS)*sim.Microsecond)
	case "critpath":
		err = trace.WriteCritPath(out, rec)
	case "diff":
		err = trace.WriteDiff(out, rec, record(*seed2))
	default:
		err = fmt.Errorf("unknown format %q", *formatFlag)
	}
	c.Check(err)
	c.Check(out.Flush())
}

// runWorkload records one seeded workload into rec.
func runWorkload(rec *trace.Recorder, name string, seed int64, t *topo.Topology, messages int) error {
	if t == nil {
		t = topo.Cluster8()
	}
	switch name {
	case "pingpong":
		return runPingPong(rec, seed, t, messages)
	case "fib":
		return runFib(rec, seed, t)
	case "dispatch":
		return runDispatch(rec, seed)
	default:
		return fmt.Errorf("unknown workload %q", name)
	}
}

// runPingPong bounces seeded messages between random rank pairs over
// the split-phase datapath of the duplicated interconnect. The pair
// schedule is drawn up front; each rank then plays its part of every
// round in order, so rounds between disjoint pairs overlap on the
// wires. Zero rounds means 12.
func runPingPong(rec *trace.Recorder, seed int64, t *topo.Topology, rounds int) error {
	if rounds < 0 {
		return fmt.Errorf("round count %d is negative", rounds)
	}
	if rounds == 0 {
		rounds = 12
	}
	w, err := mpl.NewPWorld(t, 1)
	if err != nil {
		return err
	}
	w.SetRecorder(rec)
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]int, rounds)
	for i := range pairs {
		a := rng.Intn(w.Ranks())
		b := rng.Intn(w.Ranks() - 1)
		if b >= a {
			b++
		}
		pairs[i] = [2]int{a, b}
	}
	payload := make([]byte, 256)
	return w.Run(func(r *mpl.PRank) error {
		for i, p := range pairs {
			switch r.Rank() {
			case p[0]:
				if err := r.Send(p[1], i, payload); err != nil {
					return err
				}
				if _, err := r.Recv(p[1], i); err != nil {
					return err
				}
				r.Compute(2 * sim.Microsecond)
			case p[1]:
				if _, err := r.Recv(p[0], i); err != nil {
					return err
				}
				if err := r.Send(p[0], i, payload); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// runFib records the EARTH fib benchmark: EU fiber spans, SU service
// spans and split-phase tokens crossing the planes.
func runFib(rec *trace.Recorder, seed int64, t *topo.Topology) error {
	s := earth.New(t, earth.DefaultParams())
	s.SetRecorder(rec)
	s.Network().AttachOSStream(netsim.BurstyOSStream(seed))
	got, _, err := earth.RunFib(s, fibN)
	if err != nil {
		return err
	}
	if want := earth.FibReference(fibN); got != want {
		return fmt.Errorf("fib(%d) = %d, want %d", fibN, got, want)
	}
	return nil
}

// runDispatch drives the MPC620 bus dispatcher with a seeded two-master
// transaction mix and traces address and data tenures on the 60 MHz bus
// clock.
func runDispatch(rec *trace.Recorder, seed int64) error {
	cfg := dispatch.DefaultConfig()
	d := dispatch.New(cfg, nil)
	d.Trace(rec, sim.ClockMHz(60).Period)
	rng := rand.New(rand.NewSource(seed))
	kinds := []dispatch.Kind{dispatch.Read, dispatch.ReadExcl, dispatch.Upgrade, dispatch.Writeback}
	for i := 0; i < 24; i++ {
		d.Submit(rng.Intn(cfg.Masters), kinds[rng.Intn(len(kinds))], uint64(rng.Intn(64))<<6)
		for s := rng.Intn(4); s > 0; s-- {
			d.Step()
		}
	}
	if _, ok := d.RunUntilIdle(100_000); !ok {
		return fmt.Errorf("dispatcher did not drain within 100k cycles")
	}
	return nil
}

// runCampaign runs a fault campaign with tracing attached; the fault
// engine records only the highest-rate row, so the timeline is the
// worst-case machine state the degradation table summarises.
func runCampaign(rec *trace.Recorder, name string, seed int64, t *topo.Topology, messages int, engine psim.Kind) error {
	opt := fault.Options{Seed: seed, Topology: t, Messages: messages, Trace: rec, Engine: engine}
	if c, ok := fault.CampaignByName(name); ok {
		_, err := fault.Run(c, opt)
		return err
	}
	if c, ok := fault.AppCampaignByName(name); ok {
		_, err := fault.RunApp(c, opt)
		return err
	}
	return fmt.Errorf("unknown campaign %q (try pmfault --list)", name)
}
