package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

const (
	// setupLaunches is how many set-up-only workers a measurement starts
	// besides its timed ones, so setup_s is a median even when a run has
	// room for a single timed pair.
	setupLaunches = 9
	// childTimeout bounds one worker process.
	childTimeout = 150 * time.Second
	// refWindow is how many launches on each side of a run its
	// host-speed scale draws on: nine reference times, about ten seconds
	// of launches.
	refWindow = 4
)

// childSpec is one worker process to launch.
type childSpec struct {
	workload  string
	seed      int64
	par       bool
	variant   string
	setupOnly bool
	// spans is where the worker writes its Chrome trace; "" = untraced.
	spans string
}

// childRun is one worker process as the parent saw it.
type childRun struct {
	spec childSpec
	res  workerResult
	// startS runs from the parent's launch of the process to the
	// worker's entry: process creation, and runtime and package
	// initialisation. setupS runs on to the worker's ready instant: the
	// workload's set-up.
	startS, setupS float64
	// refS is the reference load's time (reference.go), measured by the
	// parent just before it launched the process, so the load neither
	// competes with the worker nor shows in its memory.
	refS float64
	// scale is the run's host-speed scale (setScales).
	scale float64
	err   error
}

// launcher runs worker processes, one at a time, and keeps every run.
type launcher struct {
	ctx  context.Context
	exe  string
	runs []childRun
}

func (l *launcher) run(s childSpec) childRun {
	args := []string{"--worker", s.workload, "--seed", strconv.FormatInt(s.seed, 10), "--engine", engineName(s.par)}
	if s.variant != "" {
		args = append(args, "--variant", s.variant)
	}
	if s.setupOnly {
		args = append(args, "--setup-only")
	}
	if s.spans != "" {
		args = append(args, "--spans", s.spans)
	}
	ctx, cancel := context.WithTimeout(l.ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, l.exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr

	cr := childRun{spec: s, refS: referenceSeconds()}
	// Return the load's memory now, so that no collection or scavenging
	// in the parent overlaps the worker's start.
	debug.FreeOSMemory()
	launch := time.Now()
	cr.err = cmd.Run()
	if cr.err == nil {
		cr.err = json.Unmarshal(lastLine(stdout.Bytes()), &cr.res)
	}
	if cr.err == nil {
		entry := time.Unix(0, cr.res.EntryUnixNano)
		cr.startS = entry.Sub(launch).Seconds()
		cr.setupS = time.Unix(0, cr.res.ReadyUnixNano).Sub(entry).Seconds()
	} else {
		cr.err = fmt.Errorf("%s worker %v: %w", s.workload, args, cr.err)
		fmt.Fprintf(os.Stderr, "pmperf: %v\n", cr.err)
	}
	l.runs = append(l.runs, cr)
	return cr
}

// runsOf returns a copy of the runs of one workload.
func (l *launcher) runsOf(name string) []childRun {
	var out []childRun
	for _, r := range l.runs {
		if r.spec.workload == name {
			out = append(out, r)
		}
	}
	return out
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// runPair runs one seq and one par2 repetition; which goes first
// alternates with rep.
func runPair(l *launcher, w *workload, seed int64, rep int) {
	for k := 0; k < 2; k++ {
		l.run(childSpec{workload: w.name, seed: seed, par: (k+rep)%2 == 1})
	}
}

// runSetups starts the set-up-only workers of one workload.
func runSetups(l *launcher, w *workload, seed int64) {
	for i := 0; i < setupLaunches; i++ {
		l.run(childSpec{workload: w.name, seed: seed, setupOnly: true})
	}
}

// timedRuns measures w for about budget: the set-up-only workers, then
// seq/par2 pairs until the next pair would overrun (at least one pair).
func timedRuns(l *launcher, w *workload, seed int64, budget time.Duration) {
	start := time.Now()
	runSetups(l, w, seed)
	for rep := 0; l.ctx.Err() == nil; rep++ {
		pairStart := time.Now()
		runPair(l, w, seed, rep)
		if time.Since(start)+time.Since(pairStart) > budget {
			return
		}
	}
}

// tracePass runs the traced seq repetition and every variant w's
// toggles and counts need; runS supplies the run times already measured
// ("" for seq, "par2").
func tracePass(l *launcher, w *workload, seed int64, runS map[string]float64, outDir string) tracedPass {
	tp := tracedPass{baseRunS: runS[""], runS: map[string]float64{}}
	for k, v := range runS {
		tp.runS[k] = v
	}
	tp.traced = l.run(childSpec{workload: w.name, seed: seed, spans: filepath.Join(outDir, w.name+".trace.json")})
	tp.counted = tp.traced
	for _, v := range w.variants() {
		if _, ok := tp.runS[v]; ok {
			continue
		}
		spec := childSpec{workload: w.name, seed: seed, variant: v}
		if v == "par2" {
			spec.par, spec.variant = true, ""
		}
		r := l.run(spec)
		tp.runS[v] = r.res.RunS
		if v == w.countsVariant {
			tp.counted = r
		}
	}
	return tp
}

// judge counts the runs attempted and failed. A run fails when its
// worker failed or when its output digest differs from the reference:
// the pinned digest when there is one, else the first digest seen, so
// seq and par2 must agree.
func judge(runs []childRun, pinned string) (attempted, failed int, digest string) {
	digest = pinned
	checked := func(r childRun) bool { return r.err == nil && !r.spec.setupOnly && r.spec.variant == "" }
	for _, r := range runs {
		if digest == "" && checked(r) {
			digest = r.res.Digest
		}
	}
	for _, r := range runs {
		attempted++
		if checked(r) && r.res.Digest != digest {
			fmt.Fprintf(os.Stderr, "pmperf: %s %s seed %d: output digest %s, want %s\n",
				r.spec.workload, engineName(r.spec.par), r.spec.seed, r.res.Digest, digest)
			r.err = fmt.Errorf("digest mismatch")
		}
		if r.err != nil {
			failed++
		}
	}
	return attempted, failed, digest
}

// stat summarises the samples of one metric.
type stat struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

func newStat(unit string, xs []float64) stat {
	s := stat{Unit: unit, Samples: xs}
	if len(xs) > 0 {
		s.Median = median(xs)
		s.Q1, s.Q3 = quartiles(xs)
	}
	return s
}

// spread is the interquartile distance as a share of the median.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the method of
// Python's statistics.quantiles(xs, n=4) (exclusive).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// setScales gives every run its host-speed scale (reference.go):
// refNominal over the median reference time of the launches within
// refWindow of it, so that the scale follows the host's drift over a
// measurement or a ledger. Call it once every run is done.
func (l *launcher) setScales() {
	for i := range l.runs {
		refs := refTimes(l.runs[max(0, i-refWindow):min(len(l.runs), i+refWindow+1)])
		l.runs[i].scale = 1
		if len(refs) > 0 {
			l.runs[i].scale = refNominal / median(refs)
		}
	}
}

// medianScale is the median host-speed scale of the runs.
func medianScale(runs []childRun) float64 {
	var scales []float64
	for _, r := range runs {
		scales = append(scales, r.scale)
	}
	return median(scales)
}

// refTimes lists the reference load times measured before the runs.
func refTimes(runs []childRun) []float64 {
	var refs []float64
	for _, r := range runs {
		if r.refS > 0 {
			refs = append(refs, r.refS)
		}
	}
	return refs
}

// endToEnd summarises the end-to-end metrics from the timed runs of one
// workload, times multiplied by each run's scale, or a run time by its
// own pauses' scale when it paused; traced and variant runs are left
// out. Process start is mostly kernel work, which the reference load
// does not model, so it enters setup_s unscaled.
func endToEnd(runs []childRun) map[string]stat {
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	for _, r := range runs {
		if r.err != nil || r.spec.variant != "" || r.spec.spans != "" {
			continue
		}
		scale, runScale := r.scale, r.scale
		if len(r.res.PauseRefS) > 0 {
			runScale = refNominal / median(r.res.PauseRefS)
		}
		switch {
		case r.spec.par:
			add("run_par2_s", runScale*r.res.RunS)
		case r.spec.setupOnly:
			add("setup_s", r.startS+scale*r.setupS)
		default:
			add("setup_s", r.startS+scale*r.setupS)
			add("run_s", runScale*r.res.RunS)
			add("alloc_mb", float64(r.res.AllocBytes)/1e6)
			add("allocs_m", float64(r.res.Mallocs)/1e6)
			add("peak_rss_mb", float64(r.res.PeakRSSBytes)/1e6)
		}
	}
	out := map[string]stat{}
	for _, d := range endToEndDefs {
		out[d.name] = newStat(d.unit, samples[d.name])
	}
	return out
}

// readDigests loads the pinned seed-1 output digests.
func readDigests(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	pins := map[string]string{}
	if err := json.Unmarshal(data, &pins); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return pins, nil
}
