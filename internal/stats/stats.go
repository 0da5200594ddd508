// Package stats holds the small result-reporting toolkit the experiment
// harness uses: named series, figures grouping several series over a
// shared axis, fixed-width table rendering, and an ASCII plot for quick
// shape inspection in a terminal.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Point is one sample of a series.
type Point struct {
	X, Y float64
}

// Series is a named curve.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// Figure groups series over a shared X axis, mirroring one figure of the
// paper.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	LogX   bool
	LogY   bool
	Series []Series
}

// Add appends a series.
func (f *Figure) Add(s Series) { f.Series = append(f.Series, s) }

// Render produces a column table: X, then one column per series. Series
// may have different X grids; rows are the union of X values.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", f.Title)

	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sortFloats(sorted)

	fmt.Fprintf(&b, "%16s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%16s", s.Name)
	}
	b.WriteByte('\n')
	for _, x := range sorted {
		fmt.Fprintf(&b, "%16s", formatNum(x))
		for _, s := range f.Series {
			y, ok := lookup(s, x)
			if ok {
				fmt.Fprintf(&b, "%16s", formatNum(y))
			} else {
				fmt.Fprintf(&b, "%16s", "-")
			}
		}
		b.WriteByte('\n')
	}
	if f.YLabel != "" {
		fmt.Fprintf(&b, "(y: %s)\n", f.YLabel)
	}
	return b.String()
}

// Plot renders an ASCII chart of the figure (width×height characters of
// plot area), one letter per series.
func (f *Figure) Plot(width, height int) string {
	if width < 8 || height < 4 {
		width, height = 64, 16
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range f.Series {
		for _, p := range s.Points {
			x, y := f.txX(p.X), f.txY(p.Y)
			if math.IsInf(x, 0) || math.IsNaN(x) || math.IsInf(y, 0) || math.IsNaN(y) {
				continue
			}
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
	}
	if minX >= maxX || minY > maxY {
		return "(no plottable data)\n"
	}
	if minY == maxY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	marks := "ABCDEFGHIJ"
	for si, s := range f.Series {
		m := marks[si%len(marks)]
		for _, p := range s.Points {
			x, y := f.txX(p.X), f.txY(p.Y)
			if math.IsInf(x, 0) || math.IsNaN(x) || math.IsInf(y, 0) || math.IsNaN(y) {
				continue
			}
			cx := int((x - minX) / (maxX - minX) * float64(width-1))
			cy := int((y - minY) / (maxY - minY) * float64(height-1))
			grid[height-1-cy][cx] = m
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "-- %s --\n", f.Title)
	for _, row := range grid {
		b.WriteByte('|')
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteByte('+')
	b.WriteString(strings.Repeat("-", width))
	b.WriteByte('\n')
	for i, s := range f.Series {
		fmt.Fprintf(&b, "  %c = %s\n", marks[i%len(marks)], s.Name)
	}
	return b.String()
}

func (f *Figure) txX(x float64) float64 {
	if f.LogX {
		return math.Log10(x)
	}
	return x
}

func (f *Figure) txY(y float64) float64 {
	if f.LogY {
		return math.Log10(y)
	}
	return y
}

func lookup(s Series, x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

func sortFloats(xs []float64) {
	// Insertion sort: figures have tens of points.
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// formatNum renders a number compactly (engineering-ish).
func formatNum(v float64) string {
	a := math.Abs(v)
	switch {
	case v == 0:
		return "0"
	case a >= 1e9:
		return fmt.Sprintf("%.3g", v)
	case a >= 1e6:
		return fmt.Sprintf("%.4gM", v/1e6)
	case a >= 1000:
		return fmt.Sprintf("%.4gk", v/1e3)
	case a >= 1:
		return fmt.Sprintf("%.4g", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// Counter is one named count in a CounterSet.
type Counter struct {
	Name  string
	Value int64
}

// CounterSet is an ordered list of named integer counters — the reporting
// shape for degraded-mode statistics (per-plane delivery, failover and
// fault-detection counts). Insertion order is the render order, so output
// is deterministic by construction; never populate one from a map range.
type CounterSet struct {
	Title    string
	Counters []Counter
}

// Add appends a counter.
func (c *CounterSet) Add(name string, v int64) {
	c.Counters = append(c.Counters, Counter{Name: name, Value: v})
}

// Get returns the first counter with the given name (0 if absent).
func (c *CounterSet) Get(name string) int64 {
	for _, ct := range c.Counters {
		if ct.Name == name {
			return ct.Value
		}
	}
	return 0
}

// Render produces aligned "name  value" lines under the title.
func (c *CounterSet) Render() string {
	w := 0
	for _, ct := range c.Counters {
		if len(ct.Name) > w {
			w = len(ct.Name)
		}
	}
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "-- %s --\n", c.Title)
	}
	for _, ct := range c.Counters {
		fmt.Fprintf(&b, "%-*s  %d\n", w, ct.Name, ct.Value)
	}
	return b.String()
}

// Table is a titled fixed-width table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render produces aligned text.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteByte('\n')
	for i := range t.Columns {
		b.WriteString(strings.Repeat("-", widths[i]))
		b.WriteString("  ")
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
