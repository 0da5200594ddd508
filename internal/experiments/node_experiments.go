package experiments

import (
	"fmt"

	"powermanna/internal/hint"
	"powermanna/internal/machine"
	"powermanna/internal/matmult"
	"powermanna/internal/node"
	"powermanna/internal/stats"
	"powermanna/internal/topo"
)

// Table1 renders the test-system configuration comparison.
func Table1(Options) Result {
	t := &stats.Table{Title: "Table 1: Configuration of test systems", Columns: []string{"Parameter", "SUN", "PowerMANNA", "PC"}}
	sun, pm, pc := machine.SunUltra(), machine.PowerMANNA(), machine.PentiumII(266)
	row := func(label string, f func(c node.Config) string) {
		t.AddRow(label, f(sun), f(pm), f(pc))
	}
	row("Processor Type", func(c node.Config) string { return c.Core.Name })
	row("Processor Clock", func(c node.Config) string { return fmt.Sprintf("%.0f MHz", c.Core.Clock.MHz()) })
	row("Bus Clock", func(c node.Config) string { return fmt.Sprintf("%.0f MHz", c.Bus.Clock.MHz()) })
	row("Processors", func(c node.Config) string { return fmt.Sprintf("%d", c.CPUs) })
	row("Primary Cache", func(c node.Config) string { return fmt.Sprintf("%d Kbyte", c.L1D.SizeBytes>>10) })
	row("Secondary Cache", func(c node.Config) string { return fmt.Sprintf("%d Kbyte", c.L2.SizeBytes>>10) })
	row("Cache line", func(c node.Config) string { return fmt.Sprintf("%d byte", c.L2.LineBytes) })
	row("Node Memory", func(c node.Config) string { return fmt.Sprintf("%d Mbyte", c.Mem.SizeBytes>>20) })
	row("Node fabric", func(c node.Config) string { return c.Fabric.String() })
	return Result{
		ID:          "table1",
		Description: "configuration of the three test systems",
		Expected:    "matches the paper's Table 1 (plus the modelled fabric kind)",
		Table:       t,
	}
}

// Fig5Topology validates the interconnect structure claims of Section 3.
func Fig5Topology(Options) Result {
	t := &stats.Table{Title: "Figure 5: PowerMANNA topologies", Columns: []string{"Property", "Cluster (5a)", "System256 (5b)"}}
	c8 := topo.Cluster8()
	s256 := topo.System256()
	maxC8, _ := c8.MaxCrossbars()
	maxS256, _ := s256.MaxCrossbars()
	t.AddRow("Nodes", fmt.Sprintf("%d", c8.Nodes()), fmt.Sprintf("%d", s256.Nodes()))
	t.AddRow("Processors", fmt.Sprintf("%d", 2*c8.Nodes()), fmt.Sprintf("%d", 2*s256.Nodes()))
	t.AddRow("Crossbars", fmt.Sprintf("%d", c8.Crossbars()), fmt.Sprintf("%d", s256.Crossbars()))
	t.AddRow("Max crossbars on any route", fmt.Sprintf("%d", maxC8), fmt.Sprintf("%d", maxS256))
	t.AddRow("Free intercluster dual-links", fmt.Sprintf("%d", c8.FreePorts(0)), "0")
	notes := []string{}
	if maxS256 == 3 {
		notes = append(notes, "256-processor system: every pair within 3 crossbars — matches Section 3.2")
	} else {
		notes = append(notes, fmt.Sprintf("MISMATCH: max crossbars = %d, paper says 3", maxS256))
	}
	return Result{
		ID:          "fig5",
		Description: "topology properties of Figure 5a/5b",
		Expected:    "8-node cluster: 1 crossbar per route, 8 free dual-links; 256-CPU system: at most 3 crossbars between any two nodes",
		Table:       t,
		Notes:       notes,
	}
}

func hintFigure(id string, dt hint.DataType, opt Options) Result {
	max := 600_000
	if opt.Quick {
		max = 40_000
	}
	fig := &stats.Figure{
		Title:  fmt.Sprintf("Figure 6%s: HINT %s — QUIPS along time", map[hint.DataType]string{hint.Double: "a", hint.Int: "b"}[dt], dt),
		XLabel: "time [s]",
		YLabel: "QUIPS",
		LogX:   true,
		LogY:   true,
	}
	peaks := map[string]float64{}
	cfgs := machine.All()
	runs := rows(opt, len(cfgs), func(i int) hint.Result {
		return hint.Run(node.New(cfgs[i]), dt, max)
	})
	for i, cfg := range cfgs {
		r := runs[i]
		s := stats.Series{Name: cfg.Name}
		for _, p := range r.Points {
			s.Add(p.Time.Seconds(), p.QUIPS)
		}
		fig.Add(s)
		peaks[cfg.Name] = r.PeakQUIPS
	}
	notes := []string{}
	for _, k := range sortedKeys(peaks) {
		notes = append(notes, fmt.Sprintf("%s peak %.3g QUIPS", k, peaks[k]))
	}
	expected := "PowerMANNA slightly ahead of the 180 MHz PC while caches are effective, behind in the memory region; its 2 MB L2 keeps the curve flat longest"
	if dt == hint.Int {
		expected = "PowerMANNA and the PC perform almost equally well, both outperforming the SUN"
	}
	return Result{
		ID:          id,
		Description: fmt.Sprintf("HINT %s on all test systems", dt),
		Expected:    expected,
		Figure:      fig,
		Notes:       notes,
	}
}

// Fig6a runs HINT DOUBLE on all machines.
func Fig6a(opt Options) Result { return hintFigure("fig6a", hint.Double, opt) }

// Fig6b runs HINT INT on all machines.
func Fig6b(opt Options) Result { return hintFigure("fig6b", hint.Int, opt) }

func fig7Sizes(opt Options) []int {
	if opt.Quick {
		return []int{65, 101, 201}
	}
	return []int{101, 151, 201, 301, 401, 513}
}

// fig7Machines are the systems of Figure 7: the PC runs at the reduced
// clock rate (Section 5.1: "Here, we used the reduced-clock-rate Pentium
// PC").
func fig7Machines() []node.Config {
	return []node.Config{machine.PowerMANNA(), machine.SunUltra(), machine.PentiumII(180)}
}

func matmultFigure(id string, v matmult.Version, opt Options) Result {
	fig := &stats.Figure{
		Title:  fmt.Sprintf("Figure 7%s: MatMult %s, single processor", map[matmult.Version]string{matmult.Naive: "a", matmult.Transposed: "b"}[v], v),
		XLabel: "N",
		YLabel: "MFLOPS",
	}
	last := map[string]float64{}
	cfgs := fig7Machines()
	for _, s := range rows(opt, len(cfgs), func(i int) stats.Series {
		nd := node.New(cfgs[i])
		s := stats.Series{Name: cfgs[i].Name}
		for _, n := range fig7Sizes(opt) {
			s.Add(float64(n), matmult.Run(nd, n, v, 1).MFLOPS())
		}
		return s
	}) {
		fig.Add(s)
		last[s.Name] = s.Points[len(s.Points)-1].Y
	}
	expected := "the Pentium PC performs best (non-blocking loads overlap the strided misses); PowerMANNA's long lines prefetch superfluous data and its misses serialize"
	if v == matmult.Transposed {
		expected = "PowerMANNA clearly outperforms the other machines: long cache lines and the 2 MB L2 pay off on sequential rows"
	}
	notes := []string{}
	for _, k := range sortedKeys(last) {
		notes = append(notes, fmt.Sprintf("%s at largest N: %.1f MFLOPS", k, last[k]))
	}
	return Result{
		ID:          id,
		Description: fmt.Sprintf("MatMult %s sweep, 1 CPU", v),
		Expected:    expected,
		Figure:      fig,
		Notes:       notes,
	}
}

// Fig7a sweeps naive MatMult.
func Fig7a(opt Options) Result { return matmultFigure("fig7a", matmult.Naive, opt) }

// Fig7b sweeps transposed MatMult (including the transposition).
func Fig7b(opt Options) Result { return matmultFigure("fig7b", matmult.Transposed, opt) }

func speedupFigure(id string, v matmult.Version, opt Options) Result {
	sizes := []int{101, 201, 301}
	if opt.Quick {
		sizes = []int{101}
	}
	fig := &stats.Figure{
		Title:  fmt.Sprintf("Figure 8%s: MatMult %s, dual-processor speedup", map[matmult.Version]string{matmult.Naive: "a", matmult.Transposed: "b"}[v], v),
		XLabel: "N",
		YLabel: "speedup",
	}
	lastSpeedup := map[string]float64{}
	cfgs := fig7Machines()
	for _, s := range rows(opt, len(cfgs), func(i int) stats.Series {
		nd := node.New(cfgs[i])
		s := stats.Series{Name: cfgs[i].Name}
		for _, n := range sizes {
			one := matmult.Run(nd, n, v, 1)
			two := matmult.Run(nd, n, v, 2)
			s.Add(float64(n), one.Time.Seconds()/two.Time.Seconds())
		}
		return s
	}) {
		fig.Add(s)
		lastSpeedup[s.Name] = s.Points[len(s.Points)-1].Y
	}
	notes := []string{}
	for _, k := range sortedKeys(lastSpeedup) {
		notes = append(notes, fmt.Sprintf("%s speedup at largest N: %.2f", k, lastSpeedup[k]))
	}
	return Result{
		ID:          id,
		Description: fmt.Sprintf("dual-processor speedup, MatMult %s", v),
		Expected:    "PowerMANNA exactly doubles (no memory-access contention on the switched fabric); the SUN loses ~5%, the PC 15-20%",
		Figure:      fig,
		Notes:       notes,
	}
}

// Fig8a measures naive-version SMP speedup.
func Fig8a(opt Options) Result { return speedupFigure("fig8a", matmult.Naive, opt) }

// Fig8b measures transposed-version SMP speedup.
func Fig8b(opt Options) Result { return speedupFigure("fig8b", matmult.Transposed, opt) }
