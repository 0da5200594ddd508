package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// ledger is one full benchmark run: the host, every workload's
// end-to-end statistics, per-layer metrics and failure count.
type ledger struct {
	Host        hostInfo         `json:"host"`
	Seed        int64            `json:"seed"`
	Reps        int              `json:"reps"`
	Workloads   []ledgerWorkload `json:"workloads"`
	MicroFailed []string         `json:"micro_failed,omitempty"`
}

type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

type ledgerWorkload struct {
	Name      string  `json:"name"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	FailRatio float64 `json:"fail_ratio"`
	// Digest is the SHA-256 of the rendered output every checked run
	// matched.
	Digest   string                 `json:"digest"`
	EndToEnd map[string]stat        `json:"end_to_end"`
	PerLayer map[string]metricValue `json:"per_layer"`
	// RefS is the reference load's time before the workload's workers:
	// the host speed its wall times were scaled by.
	RefS stat `json:"ref_s"`
}

// ledgerMain runs every workload ledgerReps times under both engines, the
// traced pass and the microbenchmarks, prints the end-to-end table and
// writes the ledger when path is set.
func ledgerMain(ctx context.Context, exe string, seed int64, path string, pins map[string]string) error {
	l := &launcher{ctx: ctx, exe: exe}
	for _, w := range workloads {
		runSetups(l, w, seed)
	}
	for rep := 0; rep < ledgerReps; rep++ {
		for k := range workloads {
			runPair(l, workloads[(k+rep)%len(workloads)], seed, rep)
		}
	}
	micro, microFailed := runMicros()
	if ctx.Err() != nil {
		return fmt.Errorf("interrupted")
	}

	lg := ledger{
		Host: hostInfo{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
		Seed:        seed,
		Reps:        ledgerReps,
		MicroFailed: microFailed,
	}
	passes := make([]tracedPass, len(workloads))
	for i, w := range workloads {
		// The toggles compare unscaled wall times of the timed runs, keyed
		// "" for seq and "par2".
		wall := map[string][]float64{}
		for _, r := range l.runsOf(w.name) {
			if r.err == nil && !r.spec.setupOnly {
				k := ""
				if r.spec.par {
					k = "par2"
				}
				wall[k] = append(wall[k], r.res.RunS)
			}
		}
		runS := map[string]float64{}
		for k, xs := range wall {
			runS[k] = median(xs)
		}
		passes[i] = tracePass(l, w, seed, runS, outDir)
	}
	l.setScales()
	for i, w := range workloads {
		tp := passes[i]
		e2e := endToEnd(l.runsOf(w.name))
		pin := ""
		if seed == 1 {
			pin = pins[w.name]
		}
		attempted, failed, digest := judge(l.runsOf(w.name), pin)
		values := layerValues(w, tp, micro)
		layers := map[string]metricValue{}
		for _, d := range perLayerDefs {
			layers[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
		}
		lg.Workloads = append(lg.Workloads, ledgerWorkload{
			Name:      w.name,
			Attempted: attempted,
			Failed:    failed,
			FailRatio: float64(failed) / float64(attempted),
			Digest:    digest,
			EndToEnd:  e2e,
			PerLayer:  layers,
			RefS:      newStat("s", refTimes(l.runsOf(w.name))),
		})
	}

	fmt.Printf("pmperf seed %d, %d reps, GOMAXPROCS %d of %d CPUs, %s\n",
		seed, ledgerReps, lg.Host.GOMAXPROCS, lg.Host.NumCPU, lg.Host.GoVersion)
	for _, lw := range lg.Workloads {
		fmt.Printf("\n%s: %d runs, %d failed, digest %.16s\n", lw.Name, lw.Attempted, lw.Failed, lw.Digest)
		for _, d := range endToEndDefs {
			s := lw.EndToEnd[d.name]
			fmt.Printf("  %-12s %14.6g %-3s q1 %.6g, q3 %.6g, n %d\n", d.name, s.Median, d.unit, s.Q1, s.Q3, len(s.Samples))
		}
	}
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(lg, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// spec is the part of BENCHMARK.json compare and the tests read.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict compares metric medians of ledger a (before) and b (after):
// unresolved when either side's quartile spread exceeds the bound,
// otherwise worse or better when the median moved by more than the
// bound in that direction, else same.
func verdict(a, b stat, better string, bound float64) string {
	if a.spread() > bound || b.spread() > bound {
		return "unresolved"
	}
	change := relChange(a.Median, b.Median)
	if better == "higher" {
		change = -change
	}
	switch {
	case change > bound:
		return "worse"
	case change < -bound:
		return "better"
	}
	return "same"
}

// relChange is (b - a) / a, with equal values (zero included) giving 0.
func relChange(a, b float64) float64 {
	switch {
	case a == b:
		return 0
	case a == 0:
		return math.Copysign(math.Inf(1), b)
	}
	return (b - a) / math.Abs(a)
}

// compareMain prints, for every (end-to-end metric, workload), both
// ledgers' medians and quartiles and the verdict; it exits 1 when any
// pair is worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: pmperf compare A.json B.json")
		return 2
	}
	var sp spec
	var a, b ledger
	for _, f := range []struct {
		path string
		v    any
	}{{specPath, &sp}, {args[0], &a}, {args[1], &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintf(os.Stderr, "pmperf: %v\n", err)
			return 2
		}
	}
	byName := map[string]ledgerWorkload{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	fmt.Printf("%-20s %-12s %-5s %-34s %-34s %9s %6s  %s\n", "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "verdict")
	code := 0
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Printf("%-20s missing from %s\n", wa.Name, args[1])
			code = 1
			continue
		}
		for _, m := range sp.EndToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			v := verdict(sa, sb, m.Better, m.Bound)
			if v == "worse" {
				code = 1
			}
			fmt.Printf("%-20s %-12s %-5s %-34s %-34s %+8.2f%% %5.0f%%  %s\n", wa.Name, m.Name, m.Unit,
				fmt.Sprintf("%.6g [%.6g, %.6g]", sa.Median, sa.Q1, sa.Q3),
				fmt.Sprintf("%.6g [%.6g, %.6g]", sb.Median, sb.Q1, sb.Q3),
				100*relChange(sa.Median, sb.Median), 100*m.Bound, v)
		}
	}
	return code
}
