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

var _ = show(Report{}) + Outer{}.Hello()
