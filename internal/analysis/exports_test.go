package analysis

import (
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// exportExemptFiles are files whose exported names may lack a non-test
// caller: link/flit.go is the flit-level link reference that the tests
// cross-validate against the driver model.
var exportExemptFiles = map[string]bool{"internal/link/flit.go": true}

// exportExemptNames are exported names kept without a non-test caller,
// each with its reason and, for API a model may call, the runnable
// example (example_test.go at the module root) that calls it through
// the powermanna facade.
var exportExemptNames = map[string]string{
	"internal/cache.Cache.Stats":        "the cache, node and matmult tests assert hit/miss behaviour through a cache's counters",
	"internal/earth.Ctx.GetSync":        "EARTH's split-phase remote load; fib needs only DATA_SYNC (Example_earthGetSync)",
	"internal/earth.Ctx.Now":            "a fiber's clock, for programs that time their own operations (Example_earthGetSync)",
	"internal/earth.Ctx.Write":          "the local store that pairs with Ctx.Read (Example_earthGetSync)",
	"internal/earth.System.SetMem":      "seeds node memory before a run, as GET_SYNC programs need (Example_earthGetSync)",
	"internal/matmult.Reference":        "the reference product the matmult tests compare the simulated kernels against",
	"internal/metrics.Gauge.Value":      "the earth and fault tests read a gauge the model set",
	"internal/metrics.Histogram.Count":  "the earth, fault and netsim tests check a histogram's observation count against the model's deliveries",
	"internal/mpl.PRank.Barrier":        "the MPI-role barrier; the shipped workloads synchronize through data (Example_worldGather)",
	"internal/mpl.PRank.Gather":         "the MPI-role gather; the shipped workloads reduce instead (Example_worldGather)",
	"internal/mpl.PRank.Now":            "a rank's clock, for programs that time their own phases (Example_worldGather)",
	"internal/node.Proc.L2":             "TestHitRunsMatchPerElement compares every cache level's Stats from outside package node",
	"internal/node.Proc.TLB":            "TestHitRunsMatchPerElement compares every cache level's Stats from outside package node",
	"internal/psim.Engine.Lookahead":    "TestRoundCountsPinned and the lookahead tests pin it; it is meant for the engine profile of ROADMAP direction 9",
	"internal/psim.Engine.MinPostSlack": "the lookahead tests check it against Lookahead; it is meant for the engine profile of ROADMAP direction 9",
	"internal/psim.Engine.Rounds":       "TestRoundCountsPinned pins it; it is meant for the engine profile of ROADMAP direction 9",
	"internal/psim.Engine.SoloRounds":   "TestRoundCountsPinned pins it; it is meant for the engine profile of ROADMAP direction 9",
}

// TestExportsAreUsed requires every exported name declared in the
// non-test files of every internal/ package to be referenced from
// non-test code of the loaded tree, which includes bench/pmperf. A name
// in exportExemptNames is kept anyway, and must still name an unused
// export.
func TestExportsAreUsed(t *testing.T) {
	pkgs := sharedModule(t)
	if !slices.ContainsFunc(pkgs, func(p *Package) bool { return p.Rel == "bench/pmperf" }) {
		t.Fatalf("bench/pmperf is not in the loaded tree")
	}
	var unused []string
	// stale holds the name exemptions no unused export has claimed.
	stale := map[string]bool{}
	for name := range exportExemptNames {
		stale[name] = true
	}
	for _, name := range unusedExports(pkgs) {
		if _, ok := exportExemptNames[name]; ok {
			delete(stale, name)
			continue
		}
		unused = append(unused, name)
	}
	if len(unused) > 0 {
		t.Errorf("exported names with no non-test reference (delete them, or call them from the model):\n  %s",
			strings.Join(unused, "\n  "))
	}
	for name := range stale {
		t.Errorf("exportExemptNames lists %s, which is gone or has a non-test caller now: drop the exemption", name)
	}
}

// TestExportsGuardFixture runs the guard over testdata/src/exports: an
// unused export is flagged, while a method reached only through an
// inline interface literal and an embedded field are not.
func TestExportsGuardFixture(t *testing.T) {
	pkg, err := NewLoader().LoadDir(filepath.Join("testdata", "src", "exports"), "powermanna/internal/exports", "internal/exports")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	got := unusedExports([]*Package{pkg})
	if want := []string{"internal/exports.Unused"}; !slices.Equal(got, want) {
		t.Errorf("unused exports = %q, want %q", got, want)
	}
}

// unusedExports lists, sorted, the exported names declared in the
// non-test files of the internal/ packages of pkgs (package-level
// names, methods and non-embedded fields of exported types) that no
// package of pkgs references. A method that satisfies an interface
// declared in, imported by or written as a literal in a loaded package
// counts as referenced: it is called through the interface. An
// embedded field is reached through its promoted methods and fields,
// so it is not listed; names in exportExemptFiles are not either.
func unusedExports(pkgs []*Package) []string {
	// The source importer type-checks each import apart from the loaded
	// package, so one declaration has several objects: key them by
	// declaration position instead.
	used := map[string]bool{}
	key := func(pkg *Package, obj types.Object) string { return pkg.Fset.Position(obj.Pos()).String() }
	var ifaces []*types.Interface
	seenIface := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seenIface[it] {
			seenIface[it] = true
			ifaces = append(ifaces, it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	addIfaces := func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			used[key(pkg, obj)] = true
		}
		addIfaces(pkg.Types)
		for _, imp := range pkg.Types.Imports() {
			addIfaces(imp)
		}
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
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
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Rel, "internal/") {
			continue
		}
		exempt := func(obj types.Object) bool {
			file := pkg.Fset.Position(obj.Pos()).Filename
			return exportExemptFiles[pkg.Rel+"/"+filepath.Base(file)]
		}
		check := func(obj types.Object, label string) {
			if obj.Exported() && !used[key(pkg, obj)] && !exempt(obj) {
				unused = append(unused, pkg.Rel+"."+label)
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
					if f := st.Field(i); !f.Embedded() {
						check(f, name+"."+f.Name())
					}
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
	return unused
}
