package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// layeringHome is the one package allowed to touch the raw wormhole send:
// it owns the Transport that every software layer sends through.
const layeringHome = "internal/netsim"

// Layering enforces the unified messaging datapath: outside
// internal/netsim, nothing calls Network.Send directly. Raw sends bypass
// the failover protocol, the plane-down cache and the per-plane
// counters, so a layer using one silently opts its traffic out of every
// fault campaign. Sends go through a netsim.Transport; deliberate
// raw-datapath experiments carry a //pmlint:allow layering directive
// with a reason.
type Layering struct{}

// Name implements Analyzer.
func (Layering) Name() string { return "layering" }

// Doc implements Analyzer.
func (Layering) Doc() string {
	return "forbid direct netsim.Network.Send calls outside internal/netsim (use a Transport)"
}

// Check implements Analyzer.
func (Layering) Check(pkg *Package) []Diagnostic {
	if pkg.Rel == layeringHome {
		return nil
	}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Name() != "Send" {
				return true
			}
			if !isNetsimNetwork(fn) {
				return true
			}
			diags = append(diags, Diagnostic{
				Pos:      pkg.Fset.Position(call.Pos()),
				Analyzer: "layering",
				Message: fmt.Sprintf("direct netsim.Network.Send call outside %s: "+
					"send through a Transport so the failover protocol and fault campaigns see the traffic", layeringHome),
			})
			return true
		})
	}
	return diags
}

// isNetsimNetwork reports whether fn is a method whose receiver is the
// Network type of the netsim package (matched by import-path suffix, so
// fixtures impersonating other module spots resolve the real type).
func isNetsimNetwork(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Network" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), layeringHome)
}
