package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// This file is the reachability engine behind the shard-safety analyzer
// family (sharedstate, purity, timeflow) and the pmlint --report audit.
// It builds a per-package static call graph whose distinguished roots are
// the sim event-handler entry points: every function or function literal
// scheduled through a sim event queue — internal/sim's Scheduler.At /
// After (directly or via the sim.Engine interface) and the Queue.Push
// beneath them, and internal/psim's per-shard At / After — plus any
// declared function carrying the //pmlint:root directive.
// The edge from the scheduling site to the scheduled callback is
// deliberately *not* in the graph — crossing the event queue is the one
// sanctioned way for state to flow between handlers, so reachability
// from a root describes exactly what that handler can touch without
// queue mediation.

// rootDirective marks a declared function as an event-handler entry
// point the schedule-site matcher cannot see. The parallel engine's
// per-shard worker loop is the motivating case: it drains its shard's
// queue directly inside a barrier round rather than being passed to
// At/After, yet everything it calls runs in event-handler context and
// must obey the same shard-safety rules. Usage, in the doc group:
//
//	//pmlint:root
const rootDirective = "//pmlint:root"

// hasRootDirective reports whether the function's doc group carries the
// //pmlint:root directive.
func hasRootDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == rootDirective {
			return true
		}
	}
	return false
}

// CGNode is one function in a package's call graph: a declared function
// or method, or a function literal.
type CGNode struct {
	// Fn is the declared function or method (nil for a literal).
	Fn *types.Func
	// Lit is the function literal (nil for a declaration).
	Lit *ast.FuncLit
	// Name is a stable human-readable label: "F", "(T).M" or
	// "func@file.go:12".
	Name string
	// Pos locates the function for diagnostics and ordering.
	Pos token.Position
	// HandlerRoot marks a function scheduled through the sim event queue.
	HandlerRoot bool

	// calls are the outgoing static edges, deduplicated, in source order.
	calls []*CGNode
	// reads and writes are the package-level variables the body touches
	// directly (not via callees), each deduplicated in source order.
	reads, writes []*VarAccess
	// captures are, for a literal, the non-package-level variables the
	// body references but does not declare (free variables).
	captures []*VarAccess
}

// VarAccess is one variable access recorded on a call-graph node.
type VarAccess struct {
	// Var is the accessed variable.
	Var *types.Var
	// Written marks a store (assignment, ++/--, or address taken).
	Written bool
	// Pos locates the first access.
	Pos token.Position
}

// Reads returns the package-level variables the body reads directly.
func (n *CGNode) Reads() []*VarAccess { return n.reads }

// Writes returns the package-level variables the body writes directly.
func (n *CGNode) Writes() []*VarAccess { return n.writes }

// Captures returns, for a literal, its free (captured) variables.
func (n *CGNode) Captures() []*VarAccess { return n.captures }

// CallGraph is the static call graph of one package.
type CallGraph struct {
	pkg   *Package
	nodes []*CGNode // position order
	byFn  map[*types.Func]*CGNode
	byLit map[*ast.FuncLit]*CGNode
}

// HandlerRoots returns the event-handler entry points in source order:
// everything scheduled through internal/sim's queue.
func (g *CallGraph) HandlerRoots() []*CGNode {
	var roots []*CGNode
	for _, n := range g.nodes {
		if n.HandlerRoot {
			roots = append(roots, n)
		}
	}
	return roots
}

// Reachable returns root plus every node reachable from it over call
// edges (the event queue is not an edge), in source-position order.
func (g *CallGraph) Reachable(root *CGNode) []*CGNode {
	seen := map[*CGNode]bool{root: true}
	stack := []*CGNode{root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range n.calls {
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	var out []*CGNode
	for _, n := range g.nodes {
		if seen[n] {
			out = append(out, n)
		}
	}
	return out
}

// MutableVars returns the package-level variables written anywhere in
// the package's non-test code, sorted by declaration position. Variables
// only ever read (lookup tables, interface-compliance assertions) are
// not state the shard refactor has to mediate.
func (g *CallGraph) MutableVars() []*types.Var {
	seen := map[*types.Var]bool{}
	var vars []*types.Var
	for _, n := range g.nodes {
		for _, w := range n.writes {
			if !seen[w.Var] {
				seen[w.Var] = true
				vars = append(vars, w.Var)
			}
		}
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Pos() < vars[j].Pos() })
	return vars
}

// BuildCallGraph constructs the package's call graph. The result is
// deterministic: node order, edge order and access order all follow
// source position.
func BuildCallGraph(pkg *Package) *CallGraph {
	g := &CallGraph{
		pkg:   pkg,
		byFn:  map[*types.Func]*CGNode{},
		byLit: map[*ast.FuncLit]*CGNode{},
	}
	// Pass 1: one node per function declaration and literal.
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				fn, _ := pkg.Info.Defs[n.Name].(*types.Func)
				if fn == nil {
					return true
				}
				node := &CGNode{Fn: fn, Name: declName(n), Pos: pkg.Fset.Position(n.Pos())}
				node.HandlerRoot = hasRootDirective(n)
				g.byFn[fn] = node
				g.nodes = append(g.nodes, node)
			case *ast.FuncLit:
				pos := pkg.Fset.Position(n.Pos())
				node := &CGNode{
					Lit:  n,
					Name: fmt.Sprintf("func@%s:%d", filepath.Base(pos.Filename), pos.Line),
					Pos:  pos,
				}
				g.byLit[n] = node
				g.nodes = append(g.nodes, node)
			}
			return true
		})
	}
	sort.Slice(g.nodes, func(i, j int) bool { return less(g.nodes[i].Pos, g.nodes[j].Pos) })
	// Pass 2: edges, roots and variable accesses, one shallow body walk
	// per node.
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if node := g.byFn[pkg.Info.Defs[fd.Name].(*types.Func)]; node != nil {
				g.walkBody(node, fd.Body)
			}
		}
	}
	return g
}

// less orders two positions file-then-offset.
func less(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	return a.Offset < b.Offset
}

// declName labels a function declaration: "F" or "(T).M".
func declName(d *ast.FuncDecl) string {
	if d.Recv == nil {
		return d.Name.Name
	}
	return "(" + receiverTypeName(d.Recv) + ")." + d.Name.Name
}

// walkBody records node's edges and accesses from body, attributing each
// nested literal's body to the literal's own node (recursively).
func (g *CallGraph) walkBody(node *CGNode, body *ast.BlockStmt) {
	pkg := g.pkg
	// queued collects callback arguments of schedule calls seen in this
	// body: the edge to them crosses the event queue and is omitted.
	queuedLits := map[*ast.FuncLit]bool{}
	queuedIdents := map[*ast.Ident]bool{}
	// writes collects identifiers in store position.
	writeIdents := map[*ast.Ident]bool{}
	markWrite := func(e ast.Expr) {
		if id := baseIdent(e); id != nil {
			writeIdents[id] = true
		}
	}
	addEdge := func(callee *CGNode) {
		for _, c := range node.calls {
			if c == callee {
				return
			}
		}
		node.calls = append(node.calls, callee)
	}
	addAccess := func(list *[]*VarAccess, v *types.Var, written bool, pos token.Pos) {
		for _, a := range *list {
			if a.Var == v {
				return
			}
		}
		*list = append(*list, &VarAccess{Var: v, Written: written, Pos: pkg.Fset.Position(pos)})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lit := g.byLit[n]
			if lit == nil {
				return false
			}
			if !queuedLits[n] {
				// The enclosing function may invoke or pass the literal;
				// scheduled literals are reachable only through the queue.
				addEdge(lit)
			}
			g.walkBody(lit, n.Body)
			g.collectCaptures(lit, n)
			return false
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, lhs := range n.Lhs {
					markWrite(lhs)
				}
			}
		case *ast.IncDecStmt:
			markWrite(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				markWrite(n.X)
			}
		case *ast.CallExpr:
			if cb := scheduleCallback(pkg, n); cb != nil {
				switch cb := cb.(type) {
				case *ast.FuncLit:
					queuedLits[cb] = true
					if root := g.byLit[cb]; root != nil {
						root.HandlerRoot = true
					}
				case *ast.Ident:
					queuedIdents[cb] = true
					if fn, ok := pkg.Info.Uses[cb].(*types.Func); ok {
						if root := g.byFn[fn]; root != nil {
							root.HandlerRoot = true
						}
					}
				case *ast.SelectorExpr:
					queuedIdents[cb.Sel] = true
					if fn, ok := pkg.Info.Uses[cb.Sel].(*types.Func); ok {
						if root := g.byFn[fn]; root != nil {
							root.HandlerRoot = true
						}
					}
				}
			}
		case *ast.Ident:
			obj := pkg.Info.Uses[n]
			switch obj := obj.(type) {
			case *types.Func:
				// Any reference to an in-package function — call position
				// or function value — is a potential invocation, except
				// through the event queue.
				if callee := g.byFn[obj]; callee != nil && !queuedIdents[n] {
					addEdge(callee)
				}
			case *types.Var:
				if obj.Parent() == pkg.Types.Scope() {
					if writeIdents[n] {
						addAccess(&node.writes, obj, true, n.Pos())
					} else {
						addAccess(&node.reads, obj, false, n.Pos())
					}
				}
			}
		}
		return true
	})
}

// collectCaptures records the literal's free variables: identifiers that
// resolve to a variable declared outside the literal that is neither
// package-level nor a struct field.
func (g *CallGraph) collectCaptures(node *CGNode, lit *ast.FuncLit) {
	pkg := g.pkg
	written := map[*ast.Ident]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, lhs := range n.Lhs {
					if id := baseIdent(lhs); id != nil {
						written[id] = true
					}
				}
			}
		case *ast.IncDecStmt:
			if id := baseIdent(n.X); id != nil {
				written[id] = true
			}
		}
		return true
	})
	seen := map[*types.Var]*VarAccess{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Parent() == pkg.Types.Scope() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the literal
		}
		if a := seen[v]; a != nil {
			a.Written = a.Written || written[id]
			return true
		}
		a := &VarAccess{Var: v, Written: written[id], Pos: pkg.Fset.Position(id.Pos())}
		seen[v] = a
		node.captures = append(node.captures, a)
		return true
	})
}

// scheduleQueues lists the event-queue owners whose At / After / Push
// methods enqueue work: the sequential scheduler, the Engine interface
// it satisfies and the Queue both engines embed in internal/sim, and
// the parallel engine's shard in internal/psim.
var scheduleQueues = []struct {
	pkgSuffix string
	typeName  string
}{
	{"internal/sim", "Scheduler"},
	{"internal/sim", "Engine"},
	{"internal/sim", "Queue"},
	{"internal/psim", "Shard"},
}

// scheduleCallback returns the callback argument of a call that enqueues
// work on a sim event queue (Scheduler/Engine/Shard At and After, and
// Queue.Push), or nil for any other call.
// The callback is the final func() argument.
func scheduleCallback(pkg *Package, call *ast.CallExpr) ast.Expr {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || (fn.Name() != "At" && fn.Name() != "After" && fn.Name() != "Push") {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return nil
	}
	queue := false
	for _, q := range scheduleQueues {
		if obj.Name() == q.typeName && strings.HasSuffix(obj.Pkg().Path(), q.pkgSuffix) {
			queue = true
		}
	}
	if !queue {
		return nil
	}
	if len(call.Args) == 0 {
		return nil
	}
	return call.Args[len(call.Args)-1]
}
