package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// fixtureCases maps each testdata/src fixture package to the
// module-relative path it impersonates, which controls analyzer scoping.
var fixtureCases = []struct {
	dir string
	rel string
}{
	{"det_time", "internal/det_time"},
	{"det_rand", "internal/det_rand"},
	{"det_maprange", "internal/det_maprange"},
	{"det_core", "internal/sim"},
	{"cycle", "internal/cycle"},
	{"errs", "internal/errs"},
	{"doc", "internal/doc"},
	{"allow", "internal/allow"},
	{"scope", "cmd/scope"},
	{"layering", "internal/layering"},
	{"shard", "internal/shard"},
	{"order", "internal/order"},
	{"tflow", "internal/tflow"},
	{"hot", "internal/hot"},
}

// TestFixtures checks every analyzer against the fixture packages: each
// diagnostic must be announced by a `// want` comment on its line, and
// each want must be matched by a diagnostic.
func TestFixtures(t *testing.T) {
	loader := newLoader(t)
	for _, c := range fixtureCases {
		t.Run(c.dir, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", c.dir)
			pkg, err := loader.LoadDir(dir, "powermanna/"+c.rel, c.rel)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			diags := Run([]*Package{pkg}, All())
			checkExpectations(t, pkg, diags)
		})
	}
}

// expectation is one `// want` pattern with a match flag.
type expectation struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

// checkExpectations compares diagnostics against the fixture's want
// comments, line by line.
func checkExpectations(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	wants := map[string]map[int][]*expectation{} // file -> line -> wants
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				patterns, ok := parseWant(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if wants[pos.Filename] == nil {
					wants[pos.Filename] = map[int][]*expectation{}
				}
				for _, p := range patterns {
					re, err := regexp.Compile(p)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, p, err)
					}
					wants[pos.Filename][pos.Line] = append(wants[pos.Filename][pos.Line], &expectation{re: re, raw: p})
				}
			}
		}
	}
	for _, d := range diags {
		found := false
		for _, w := range wants[d.Pos.Filename][d.Pos.Line] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for file, lines := range wants {
		for line, ws := range lines {
			for _, w := range ws {
				if !w.matched {
					t.Errorf("%s:%d: want %q matched no diagnostic", file, line, w.raw)
				}
			}
		}
	}
}

// parseWant extracts the backquoted or double-quoted patterns of a
// `// want` comment. It reports ok=false for ordinary comments.
func parseWant(comment string) ([]string, bool) {
	idx := strings.Index(comment, "// want ")
	if idx < 0 {
		return nil, false
	}
	rest := comment[idx+len("// want "):]
	var patterns []string
	for {
		rest = strings.TrimSpace(rest)
		if rest == "" {
			break
		}
		switch rest[0] {
		case '`':
			end := strings.Index(rest[1:], "`")
			if end < 0 {
				return patterns, len(patterns) > 0
			}
			patterns = append(patterns, rest[1:1+end])
			rest = rest[end+2:]
		case '"':
			var s string
			var err error
			// Find the closing quote respecting escapes via Unquote on
			// growing prefixes.
			closing := -1
			for i := 1; i < len(rest); i++ {
				if rest[i] == '"' && rest[i-1] != '\\' {
					closing = i
					break
				}
			}
			if closing < 0 {
				return patterns, len(patterns) > 0
			}
			s, err = strconv.Unquote(rest[:closing+1])
			if err != nil {
				return patterns, len(patterns) > 0
			}
			patterns = append(patterns, s)
			rest = rest[closing+1:]
		default:
			return patterns, len(patterns) > 0
		}
	}
	return patterns, len(patterns) > 0
}

// The whole module, loaded once per test binary and shared: Run and
// AuditPackages only read the packages, and each load type-checks every
// package of the module again.
var (
	moduleOnce sync.Once
	modulePkgs []*Package
	moduleErr  error
)

// sharedModule returns the shared load of this repository, skipping in
// short mode.
func sharedModule(t *testing.T) []*Package {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checking the whole module is not short")
	}
	moduleOnce.Do(func() {
		var l *Loader
		if l, moduleErr = NewLoader("."); moduleErr == nil {
			modulePkgs, moduleErr = l.Load([]string{"./..."})
		}
	})
	if moduleErr != nil {
		t.Fatalf("loading module: %v", moduleErr)
	}
	return modulePkgs
}

// newLoader builds a loader for this module.
func newLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestLoaderChecksEachPackageOnce pins the loader's one package
// universe: importing a module path yields the very *types.Package
// LoadPackage returns, with the Info the analyzers read, and a fixture
// loaded under powermanna/internal/sim does not stand in for the real
// package when a later package imports it; a reload, however the path
// is spelled, returns the memoized package.
func TestLoaderChecksEachPackageOnce(t *testing.T) {
	l := newLoader(t)
	fake, err := l.LoadDir(filepath.Join("testdata", "src", "det_core"), "powermanna/internal/sim", "internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	psim, err := l.LoadPackage("internal/psim")
	if err != nil {
		t.Fatal(err)
	}
	sim, err := l.LoadPackage("internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	if sim == fake || sim.Types == fake.Types {
		t.Fatalf("LoadPackage(internal/sim) returned the det_core fixture")
	}
	imported, err := l.Import("powermanna/internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	if imported != sim.Types {
		t.Errorf("Import and LoadPackage returned different packages for internal/sim")
	}
	for _, imp := range psim.Types.Imports() {
		if imp.Path() == "powermanna/internal/sim" && imp != sim.Types {
			t.Errorf("internal/psim imports a second copy of internal/sim")
		}
	}
	if again, err := l.LoadPackage("./internal/sim/"); err != nil || again != sim {
		t.Errorf("reloading internal/sim = %p, %v; want the memoized %p", again, err, sim)
	}
}

// TestRepositoryIsClean runs the full suite over this repository itself:
// any new violation of the determinism contract fails tier-1 tests, not
// just the optional pmlint run.
func TestRepositoryIsClean(t *testing.T) {
	pkgs := sharedModule(t)
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; module walk looks broken", len(pkgs))
	}
	diags := Run(pkgs, All())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Logf("the determinism contract is documented in DESIGN.md; suppress only with //pmlint:allow <analyzer> <reason>")
	}
}

// TestSuiteNames pins the analyzer names the allow directive refers to.
func TestSuiteNames(t *testing.T) {
	want := []string{"determinism", "cycleaccount", "errcheck", "docexport", "layering", "sharedstate", "purity", "timeflow", "hotpath"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name() != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name(), want[i])
		}
		if a.Doc() == "" {
			t.Errorf("analyzer %q has no doc", a.Name())
		}
		if got, ok := ByName(want[i]); !ok || got.Name() != want[i] {
			t.Errorf("ByName(%q) failed", want[i])
		}
	}
}

// TestDiagnosticString pins the machine-readable report format.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "determinism", Message: "boom"}
	d.Pos.Filename = "x.go"
	d.Pos.Line = 3
	d.Pos.Column = 7
	if got, want := d.String(), "x.go:3:7: determinism: boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestModuleRoot checks go.mod discovery from a nested directory.
func TestModuleRoot(t *testing.T) {
	root, modpath, err := moduleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if modpath != "powermanna" {
		t.Errorf("module path = %q, want powermanna", modpath)
	}
	if filepath.Base(root) == "analysis" {
		t.Errorf("root %q should be the module root, not the package dir", root)
	}
}

// TestInjectedViolationIsCaught rebuilds the acceptance scenario of the
// contract: introducing a wall-clock read into a sim-core package must
// produce a determinism diagnostic.
func TestInjectedViolationIsCaught(t *testing.T) {
	dir := t.TempDir()
	src := `package netsim

import "time"

func stamp() time.Time { return time.Now() }

func launch(ch chan int) { go func() { ch <- 1 }() }
`
	if err := writeFile(filepath.Join(dir, "netsim.go"), src); err != nil {
		t.Fatal(err)
	}
	pkg, err := newLoader(t).LoadDir(dir, "powermanna/internal/netsim", "internal/netsim")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, All())
	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, d.Message)
	}
	joined := strings.Join(msgs, "\n")
	for _, want := range []string{"wall-clock read time.Now", "goroutine launched in sim core", "channel send in sim core"} {
		if !strings.Contains(joined, want) {
			t.Errorf("injected violation not caught: want %q in:\n%s", want, joined)
		}
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
