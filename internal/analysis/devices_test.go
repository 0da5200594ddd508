package analysis

import (
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// devicePackages are the interconnect device packages, their observer,
// the network that drives them, the runtimes over it and the event
// kernel under all of them: the wormhole walk in internal/netsim drives
// the devices, internal/earth and internal/mpl send through it,
// internal/sim schedules every event, and none keeps API beside what
// the model and the tools call.
var devicePackages = []string{
	"internal/ni", "internal/xbar", "internal/link", "internal/telemetry",
	"internal/netsim", "internal/earth", "internal/mpl", "internal/sim",
}

// deviceExemptFiles are device files whose exported names may lack a
// non-test caller: link/flit.go is the flit-level link reference that
// the tests cross-validate against the driver model.
var deviceExemptFiles = map[string]bool{"internal/link/flit.go": true}

// deviceExemptNames are exported names kept without a non-test caller,
// each with its reason and, for API a model may call, the runnable
// example (example_test.go at the module root) that calls it through
// the powermanna facade.
var deviceExemptNames = map[string]string{
	"internal/earth.Ctx.GetSync":   "EARTH's split-phase remote load; fib needs only DATA_SYNC (Example_earthGetSync)",
	"internal/earth.Ctx.Now":       "a fiber's clock, for programs that time their own operations (Example_earthGetSync)",
	"internal/earth.Ctx.Write":     "the local store that pairs with Ctx.Read (Example_earthGetSync)",
	"internal/earth.System.SetMem": "seeds node memory before a run, as GET_SYNC programs need (Example_earthGetSync)",
	"internal/mpl.PRank.Barrier":   "the MPI-role barrier; the shipped workloads synchronize through data (Example_worldGather)",
	"internal/mpl.PRank.Gather":    "the MPI-role gather; the shipped workloads reduce instead (Example_worldGather)",
	"internal/mpl.PRank.Now":       "a rank's clock, for programs that time their own phases (Example_worldGather)",
	"internal/sim.Scheduler.Queue": "the embedded event queue: callers reach its methods promoted through Scheduler, never by the field name",
}

// TestDeviceExportsAreUsed requires every exported name declared in the
// non-test files of the device packages (package-level names, methods
// and fields of exported types) to be referenced from non-test code of
// the loaded tree, which includes bench/pmperf. A method that satisfies
// an interface declared in, or imported by, a loaded package is exempt:
// it is called through the interface. So is a name in
// deviceExemptNames, which must still name an unused export.
func TestDeviceExportsAreUsed(t *testing.T) {
	pkgs := sharedModule(t)
	// The source importer type-checks each import apart from the loaded
	// package, so one declaration has several objects: key them by
	// declaration position instead.
	used := map[string]bool{}
	key := func(pkg *Package, obj types.Object) string { return pkg.Fset.Position(obj.Pos()).String() }
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	addIfaces := func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	loaded := map[string]bool{}
	for _, pkg := range pkgs {
		loaded[pkg.Rel] = true
		for _, obj := range pkg.Info.Uses {
			used[key(pkg, obj)] = true
		}
		addIfaces(pkg.Types)
		for _, imp := range pkg.Types.Imports() {
			addIfaces(imp)
		}
	}
	if !loaded["bench/pmperf"] {
		t.Fatalf("bench/pmperf is not in the loaded tree")
	}
	satisfiesInterface := func(recv types.Type, name string) bool {
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == name && (types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
					return true
				}
			}
		}
		return false
	}

	var unused []string
	// stale holds the name exemptions no unused export has claimed yet.
	stale := map[string]bool{}
	for name := range deviceExemptNames {
		stale[name] = true
	}
	for _, pkg := range pkgs {
		if !slices.Contains(devicePackages, pkg.Rel) {
			continue
		}
		exempt := func(obj types.Object) bool {
			file := pkg.Fset.Position(obj.Pos()).Filename
			return deviceExemptFiles[pkg.Rel+"/"+filepath.Base(file)]
		}
		check := func(obj types.Object, label string) {
			if obj.Exported() && !used[key(pkg, obj)] && !exempt(obj) {
				name := pkg.Rel + "." + label
				if _, ok := deviceExemptNames[name]; ok {
					delete(stale, name)
					return
				}
				unused = append(unused, name)
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			check(obj, name)
			tn, ok := obj.(*types.TypeName)
			if !ok || !obj.Exported() || exempt(obj) {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					check(st.Field(i), name+"."+st.Field(i).Name())
				}
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !satisfiesInterface(named, m.Name()) {
					check(m, name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("exported device names with no non-test reference (delete them, or call them from the model):\n  %s",
			strings.Join(unused, "\n  "))
	}
	for name := range stale {
		t.Errorf("deviceExemptNames lists %s, which is gone or has a non-test caller now: drop the exemption", name)
	}
}
