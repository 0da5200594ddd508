package stats

import (
	"strings"
	"testing"
)

func TestSeriesAddMax(t *testing.T) {
	var s Series
	s.Add(1, 10)
	s.Add(2, 30)
	s.Add(3, 20)
	if len(s.Points) != 3 {
		t.Fatalf("points = %d", len(s.Points))
	}
	if s.Points[1] != (Point{X: 2, Y: 30}) {
		t.Errorf("point 1 = %+v, want {2 30}", s.Points[1])
	}
}

func TestFigureRender(t *testing.T) {
	f := Figure{Title: "Fig X", XLabel: "N", YLabel: "MFLOPS"}
	a := Series{Name: "pm"}
	a.Add(100, 120)
	a.Add(200, 110)
	b := Series{Name: "pc"}
	b.Add(100, 90)
	f.Add(a)
	f.Add(b)
	out := f.Render()
	for _, want := range []string{"Fig X", "pm", "pc", "100", "120", "MFLOPS"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// b has no point at x=200: a dash appears.
	if !strings.Contains(out, "-") {
		t.Error("missing-value dash absent")
	}
}

func TestFigurePlot(t *testing.T) {
	f := Figure{Title: "curve", LogX: true}
	s := Series{Name: "pm"}
	for x := 1.0; x <= 1024; x *= 2 {
		s.Add(x, x*x)
	}
	f.Add(s)
	out := f.Plot(40, 10)
	if !strings.Contains(out, "A = pm") {
		t.Errorf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "A") {
		t.Error("no marks plotted")
	}
	// Degenerate figure.
	empty := Figure{Title: "none"}
	if !strings.Contains(empty.Plot(40, 10), "no plottable data") {
		t.Error("empty plot not handled")
	}
}

func TestSortFloats(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	sortFloats(xs)
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			t.Fatalf("not sorted: %v", xs)
		}
	}
}

func TestFormatNum(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1234:    "1.234k",
		2.5e6:   "2.5M",
		0.00123: "0.00123",
		42:      "42",
	}
	for in, want := range cases {
		if got := formatNum(in); got != want {
			t.Errorf("formatNum(%g) = %q, want %q", in, got, want)
		}
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{Title: "Table 1", Columns: []string{"System", "Clock"}}
	tb.AddRow("PowerMANNA", "180 MHz")
	tb.AddRow("SUN", "168 MHz")
	out := tb.Render()
	for _, want := range []string{"Table 1", "System", "PowerMANNA", "168 MHz", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
