package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// simCorePackages are the single-threaded simulation-core packages in
// which any concurrency primitive breaks the event-ordering guarantee:
// the scheduler assumes exactly one goroutine mutates model state.
var simCorePackages = map[string]bool{
	"internal/sim":      true,
	"internal/cpu":      true,
	"internal/cache":    true,
	"internal/bus":      true,
	"internal/xbar":     true,
	"internal/netsim":   true,
	"internal/dispatch": true,
	"internal/mpl":      true,
}

// randAllowed are the math/rand package-level functions that construct
// explicit generators rather than touching the global source.
var randAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// Determinism enforces the simulator's determinism contract in
// internal/... and examples/...: results must be a pure function of the
// model and its configuration.
//
// It reports wall-clock reads (time.Now, time.Since, time.Until), uses of
// the global math/rand source (package-level funcs other than the
// explicit-generator constructors New/NewSource/NewZipf), iteration over
// maps whose loop body has order-dependent effects (writes to variables
// declared outside the loop, or fmt/stats output) without a later sort of
// the accumulated data, and — inside the single-threaded sim core — any
// goroutine launch, channel operation or runtime.Goexit.
type Determinism struct{}

// Name implements Analyzer.
func (Determinism) Name() string { return "determinism" }

// Doc implements Analyzer.
func (Determinism) Doc() string {
	return "forbid wall clocks, global math/rand, unordered map iteration, and sim-core concurrency"
}

// Check implements Analyzer.
func (Determinism) Check(pkg *Package) []Diagnostic {
	if !strings.HasPrefix(pkg.Rel, "internal/") && !strings.HasPrefix(pkg.Rel, "examples/") {
		return nil
	}
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...interface{}) {
		diags = append(diags, Diagnostic{
			Pos:      pkg.Fset.Position(pos),
			Analyzer: "determinism",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	core := simCorePackages[pkg.Rel]
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				obj := pkg.Info.Uses[n.Sel]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				switch obj.Pkg().Path() {
				case "time":
					switch obj.Name() {
					case "Now", "Since", "Until":
						report(n.Pos(), "wall-clock read time.%s: simulated results must not depend on host time (use sim.Time)", obj.Name())
					}
				case "math/rand", "math/rand/v2":
					fn, isFunc := obj.(*types.Func)
					if !isFunc || randAllowed[obj.Name()] {
						return true
					}
					// Methods on an explicit *rand.Rand are the sanctioned
					// idiom; only package-level funcs touch the global source.
					if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
						report(n.Pos(), "global math/rand source via rand.%s: thread an explicit *rand.Rand seeded from config", obj.Name())
					}
				case "runtime":
					if core && obj.Name() == "Goexit" {
						report(n.Pos(), "runtime.Goexit in sim core package %s: the simulation core is single-threaded by contract", pkg.Rel)
					}
				}
			case *ast.GoStmt:
				if core {
					report(n.Pos(), "goroutine launched in sim core package %s: the simulation core is single-threaded by contract", pkg.Rel)
				}
			case *ast.SendStmt:
				if core {
					report(n.Pos(), "channel send in sim core package %s: the simulation core is single-threaded by contract", pkg.Rel)
				}
			case *ast.UnaryExpr:
				if core && n.Op == token.ARROW {
					report(n.Pos(), "channel receive in sim core package %s: the simulation core is single-threaded by contract", pkg.Rel)
				}
			case *ast.SelectStmt:
				if core {
					report(n.Pos(), "select statement in sim core package %s: the simulation core is single-threaded by contract", pkg.Rel)
				}
			case *ast.CallExpr:
				if core {
					if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "make" && len(n.Args) > 0 {
						if t := pkg.Info.TypeOf(n.Args[0]); t != nil {
							if _, isChan := t.Underlying().(*types.Chan); isChan {
								report(n.Pos(), "channel created in sim core package %s: the simulation core is single-threaded by contract", pkg.Rel)
							}
						}
					}
				}
			}
			return true
		})
		diags = append(diags, checkMapRanges(pkg, f)...)
	}
	return diags
}

// checkMapRanges flags `for ... range m` over a map whose body writes to
// variables declared outside the loop or emits fmt/stats output, unless
// each accumulated variable is later passed to a sort call in the same
// function. Writes that index into a map are exempt (building a map from
// a map is order-independent).
func checkMapRanges(pkg *Package, f *ast.File) []Diagnostic {
	var diags []Diagnostic
	for _, body := range functionBodies(f) {
		forEachShallow(body, func(n ast.Node) {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return
			}
			t := pkg.Info.TypeOf(rs.X)
			if t == nil {
				return
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return
			}
			written, output := mapRangeEffects(pkg, rs)
			if output != "" {
				diags = append(diags, Diagnostic{
					Pos:      pkg.Fset.Position(rs.For),
					Analyzer: "determinism",
					Message: fmt.Sprintf("map iteration calls %s: map order is random per run; iterate sorted keys instead",
						output),
				})
				return
			}
			var unsorted []string
			for _, v := range written {
				if !sortedAfter(pkg, body, rs, v) {
					unsorted = append(unsorted, v.Name())
				}
			}
			if len(unsorted) > 0 {
				diags = append(diags, Diagnostic{
					Pos:      pkg.Fset.Position(rs.For),
					Analyzer: "determinism",
					Message: fmt.Sprintf("map iteration accumulates into %s in map order: iterate sorted keys or sort the result afterwards",
						strings.Join(unsorted, ", ")),
				})
			}
		})
	}
	return diags
}

// functionBodies returns every function body in the file: declarations
// plus literals, each exactly once.
func functionBodies(f *ast.File) []*ast.BlockStmt {
	var bodies []*ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				bodies = append(bodies, n.Body)
			}
		case *ast.FuncLit:
			bodies = append(bodies, n.Body)
		}
		return true
	})
	return bodies
}

// forEachShallow visits nodes under body without descending into nested
// function literals (their statements belong to the literal's own body).
func forEachShallow(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if n != nil && n != body {
			fn(n)
		}
		return true
	})
}

// mapRangeEffects scans a map-range body for order-dependent effects. It
// returns the distinct outside-declared variables the body writes to, and
// a description of the first ordered-output call (fmt or internal/stats),
// if any.
func mapRangeEffects(pkg *Package, rs *ast.RangeStmt) (written []*types.Var, output string) {
	seen := map[*types.Var]bool{}
	addWrite := func(e ast.Expr) {
		// Writes through a map index are order-independent.
		if ix, ok := e.(*ast.IndexExpr); ok {
			if t := pkg.Info.TypeOf(ix.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					return
				}
			}
		}
		id := baseIdent(e)
		if id == nil || id.Name == "_" {
			return
		}
		obj, _ := pkg.Info.Uses[id].(*types.Var)
		if obj == nil {
			return
		}
		// Only variables declared outside the loop accumulate across
		// iterations.
		if obj.Pos() >= rs.Pos() && obj.Pos() < rs.End() {
			return
		}
		if !seen[obj] {
			seen[obj] = true
			written = append(written, obj)
		}
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				addWrite(lhs)
			}
		case *ast.IncDecStmt:
			addWrite(n.X)
		case *ast.CallExpr:
			if output == "" {
				if name := orderedOutputCall(pkg, n); name != "" {
					output = name
				}
			}
		}
		return true
	})
	return written, output
}

// orderedOutputCall reports a non-empty description if the call emits
// ordered output: anything from package fmt, or from the stats reporting
// package (tables and figures render rows in insertion order).
func orderedOutputCall(pkg *Package, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj := pkg.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	path := obj.Pkg().Path()
	if path == "fmt" || strings.HasSuffix(path, "/internal/stats") {
		short := path[strings.LastIndex(path, "/")+1:]
		return short + "." + obj.Name()
	}
	return ""
}

// sortedAfter reports whether v is passed to a sort-like call (callee
// name containing "sort", e.g. sort.Strings, slices.Sort, sortFloats)
// after the range statement within the same function body.
func sortedAfter(pkg *Package, body *ast.BlockStmt, rs *ast.RangeStmt, v *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		var callee string
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			callee = fun.Name
		case *ast.SelectorExpr:
			callee = fun.Sel.Name
			if id, ok := fun.X.(*ast.Ident); ok {
				callee = id.Name + "." + callee
			}
		}
		if !strings.Contains(strings.ToLower(callee), "sort") {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && pkg.Info.Uses[id] == v {
				found = true
			}
		}
		return true
	})
	return found
}

// baseIdent unwraps selectors, indexing and dereferences down to the
// root identifier of an assignable expression (x, x.f, x[i], *x, ...).
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := e.(type) {
		case *ast.Ident:
			return t
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		default:
			return nil
		}
	}
}
