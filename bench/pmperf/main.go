// Command pmperf is the repository's performance benchmark: five pinned
// workloads through the simulator's layers, each under the sequential
// engine (seq) and the parallel engine at two shards (par2), with
// end-to-end metrics from timed runs and per-layer metrics from a traced
// pass plus layer microbenchmarks. BENCHMARK.json at the repository root
// declares the workloads and metrics; README.md beside this package
// explains them.
//
// Every repetition runs in its own worker process, one at a time: the
// parent re-executes itself with --worker and reads the worker's JSON
// result from stdout.
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	pmperf --workload heat-spmd --seed 1 --seconds 18 --trace 0
//	pmperf --seed 1 --ledger bench/ledger/BENCH_next.json
//	pmperf compare A.json B.json
//
// With --workload it measures one workload for --seconds and prints, as
// its last stdout line, one JSON object: correct, attempted, failed and
// the metrics (end-to-end with --trace 0, per-layer with --trace 1).
// Without --workload it runs every workload ledgerReps times, rotating the
// workload order between repetitions, runs the traced pass, and writes
// the ledger. compare sets two ledgers side by side against the bounds
// in BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"
)

const (
	// outDir receives the traced pass's Chrome traces.
	outDir = "bench/out"
	// digestsPath pins the seed-1 output digests.
	digestsPath = "bench/testdata/digests.json"
	// specPath is the benchmark definition compare takes its bounds from.
	specPath = "BENCHMARK.json"
	// ledgerReps is how many seq/par2 pairs a ledger runs per workload.
	ledgerReps = 5
)

// contractTimeout keeps a --workload measurement under the three-minute
// cap whatever its workers do.
const contractTimeout = 170 * time.Second

func main() {
	entry := time.Now()
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("pmperf", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "measure this workload only and print the result JSON")
		seed         = fs.Int64("seed", 1, "seed every workload input derives from")
		seconds      = fs.Int("seconds", 18, "how long a --workload measurement runs")
		traced       = fs.Int("trace", 0, "with --workload: 0 = end-to-end metrics, 1 = per-layer metrics")
		ledgerPath   = fs.String("ledger", "", "without --workload: write the ledger JSON here")
		worker       = fs.String("worker", "", "run one repetition of this workload in this process and print its JSON result")
		engine       = fs.String("engine", "seq", "worker engine: seq or par2")
		variant      = fs.String("variant", "", "worker configuration toggle used by the traced pass")
		setupOnly    = fs.Bool("setup-only", false, "worker stops once set-up is done")
		spans        = fs.String("spans", "", "worker writes its host-time spans as Chrome trace JSON here")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if fs.NArg() > 0 {
		fail(fmt.Errorf("unexpected arguments %v", fs.Args()))
	}
	if *worker != "" {
		if err := workerMain(entry, *worker, *seed, *engine, *variant, *setupOnly, *spans); err != nil {
			fail(err)
		}
		return
	}
	pins, err := readDigests(digestsPath)
	if err != nil {
		fail(err)
	}
	exe, err := os.Executable()
	if err != nil {
		fail(err)
	}
	// A signal kills the running worker (exec.CommandContext) and ends
	// the measurement without a result.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *workloadName != "" {
		w, err := workloadByName(*workloadName)
		if err != nil {
			fail(err)
		}
		if *seconds < 1 || (*traced != 0 && *traced != 1) {
			fail(fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1"))
		}
		measureMain(ctx, exe, w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, pins)
		return
	}
	if err := ledgerMain(ctx, exe, *seed, *ledgerPath, pins); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "pmperf: %v\n", err)
	os.Exit(1)
}

// workerMain is one repetition in its own process, which main entered
// at entry.
func workerMain(entry time.Time, name string, seed int64, engine, variant string, setupOnly bool, spansPath string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if engine != "seq" && engine != "par2" {
		return fmt.Errorf("unknown engine %q (want seq or par2)", engine)
	}
	if !w.knowsVariant(variant) {
		return fmt.Errorf("workload %s has no variant %q", name, variant)
	}
	var sp *spanRecorder
	if spansPath != "" {
		sp = newSpanRecorder()
	}
	res, err := runWorker(w, runConfig{seed: seed, par: engine == "par2", variant: variant}, sp, setupOnly)
	if err != nil {
		return err
	}
	res.EntryUnixNano = entry.UnixNano()
	if sp != nil {
		if err := sp.writeChrome(spansPath); err != nil {
			return err
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a --workload measurement ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measureMain measures one workload for about budget and prints the
// metrics, by name with unit, then the result JSON.
func measureMain(parent context.Context, exe string, w *workload, seed int64, budget time.Duration, traced bool, pins map[string]string) {
	ctx, cancel := context.WithTimeout(parent, contractTimeout)
	defer cancel()
	l := &launcher{ctx: ctx, exe: exe}
	pin := ""
	if seed == 1 {
		pin = pins[w.name]
	}
	metrics := map[string]metricValue{}
	var microRan int
	var microFailed []string
	if !traced {
		timedRuns(l, w, seed, budget)
		l.setScales()
		stats := endToEnd(l.runs)
		fmt.Printf("pmperf %s seed %d: end-to-end, times scaled by %.4f (median) for host speed\n", w.name, seed, medianScale(l.runs))
		for _, d := range endToEndDefs {
			s := stats[d.name]
			fmt.Printf("  %-12s %14.6g %-3s median of %d, q1 %.6g, q3 %.6g\n", d.name, s.Median, d.unit, len(s.Samples), s.Q1, s.Q3)
			metrics[d.name] = metricValue{Value: s.Median, Unit: d.unit}
		}
	} else {
		start := time.Now()
		var base []float64
		for first := true; first || (time.Since(start) < budget/3 && ctx.Err() == nil); first = false {
			if r := l.run(childSpec{workload: w.name, seed: seed}); r.err == nil {
				base = append(base, r.res.RunS)
			}
		}
		runS := map[string]float64{}
		if len(base) > 0 {
			runS[""] = median(base)
		}
		tp := tracePass(l, w, seed, runS, outDir)
		var micro map[string]float64
		micro, microFailed = runMicros()
		microRan = len(micros)
		values := layerValues(w, tp, micro)
		fmt.Printf("pmperf %s seed %d: per layer (trace in %s)\n", w.name, seed, outDir)
		for _, d := range perLayerDefs {
			fmt.Printf("  %-26s %14.6g %s\n", d.name, values[d.name], d.unit)
			metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
		}
	}
	if parent.Err() != nil {
		fail(fmt.Errorf("interrupted"))
	}
	attempted, failed, _ := judge(l.runs, pin)
	attempted += microRan
	failed += len(microFailed)
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "pmperf: metric %s is not finite\n", name)
			metrics[name] = metricValue{Unit: m.Unit}
			failed++
		}
	}
	out, err := json.Marshal(result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}
