// Package exports is the fixture of the unused-export guard.
package exports

// Report is rendered through an inline interface literal only.
type Report struct{ rows int }

// Render satisfies no named interface, only the literal in show: the
// guard must count it as called.
func (r Report) Render() string {
	if r.rows == 0 {
		return "empty"
	}
	return "rows"
}

func show(v interface{ Render() string }) string { return v.Render() }

// Base is embedded in Outer.
type Base struct{}

// Hello is reached through Outer by promotion.
func (Base) Hello() string { return "hello" }

// Outer embeds Base: callers reach Base's methods promoted, never the
// field by name, so the guard must not flag the field.
type Outer struct {
	Base
}

// Unused is referenced nowhere: the guard must flag it.
func Unused() {}

// Shape is a module interface: its methods count as called only where
// something calls them through it.
type Shape interface {
	// Area is called in measure.
	Area() int
	// Perimeter is called nowhere: the guard must flag it and
	// Square.Perimeter, which implements it.
	Perimeter() int
}

// Square implements Shape.
type Square struct{ side int }

// Area is reached through Shape.Area.
func (s Square) Area() int { return s.side * s.side }

// Perimeter satisfies only the uncalled Shape.Perimeter.
func (s Square) Perimeter() int { return 4 * s.side }

func measure(s Shape) int { return s.Area() }

var _ = show(Report{}) + Outer{}.Hello()

var _ = measure(Square{side: 2})
