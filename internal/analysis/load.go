package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Package is one loaded, parsed and type-checked package ready for
// analysis. Only non-test files are loaded: tests may legitimately use
// wall clocks and ad-hoc randomness for harness purposes.
type Package struct {
	// Dir is the package directory on disk.
	Dir string
	// ImportPath is the module-qualified import path.
	ImportPath string
	// Rel is the module-relative path ("" for the module root package,
	// "internal/sim", "examples/heat", ...). Analyzers use it for scoping.
	Rel string
	// Fset maps AST positions back to file coordinates.
	Fset *token.FileSet
	// Files holds the parsed non-test Go files, with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the resolved type and object information.
	Info *types.Info
}

// Loader parses and type-checks the packages of one module, each once:
// it is its own importer, so a module import resolves through
// LoadPackage to the very package the analyzers see. The standard
// library comes from the compiler's export data.
type Loader struct {
	fset          *token.FileSet
	std           types.Importer
	root, modpath string
	// pkgs memoizes LoadDir by directory and import path (a fixture may
	// impersonate a module path); nil marks a load in progress.
	pkgs map[[2]string]*Package
}

// NewLoader builds a loader for the module enclosing dir.
func NewLoader(dir string) (*Loader, error) {
	root, modpath, err := moduleRoot(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{fset: fset, std: importer.ForCompiler(fset, "gc", nil), root: root, modpath: modpath,
		pkgs: map[[2]string]*Package{}}, nil
}

// Import implements types.Importer: module paths load through
// LoadPackage, everything else from the standard library.
func (l *Loader) Import(path string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, l.modpath)
	if !ok || rel != "" && rel[0] != '/' {
		return l.std.Import(path)
	}
	pkg, err := l.LoadPackage(strings.TrimPrefix(rel, "/"))
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// LoadDir loads the single package in dir. importPath and rel label the
// package for reporting and analyzer scoping; they are passed explicitly
// so fixtures can impersonate any spot of the module tree.
func (l *Loader) LoadDir(dir, importPath, rel string) (*Package, error) {
	key := [2]string{dir, importPath}
	if pkg, ok := l.pkgs[key]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
		}
		return pkg, nil
	}
	l.pkgs[key] = nil
	pkg, err := l.check(dir, importPath, rel)
	if err != nil {
		delete(l.pkgs, key)
		return nil, err
	}
	l.pkgs[key] = pkg
	return pkg, nil
}

// check parses and type-checks the package in dir.
func (l *Loader) check(dir, importPath, rel string) (*Package, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: importing %s: %w", dir, err)
	}
	var files []*ast.File
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no buildable non-test Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	return &Package{
		Dir:        dir,
		ImportPath: importPath,
		Rel:        rel,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// moduleRoot walks upward from dir to the enclosing go.mod and returns
// the module root directory and module path.
func moduleRoot(dir string) (root, modpath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", abs)
		}
		d = parent
	}
}

// packageDirs lists every directory under root (inclusive) that contains
// buildable non-test Go files, skipping testdata, vendor, hidden and
// underscore-prefixed directories. Results are sorted and relative to
// root ("." for root itself).
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		if len(bp.GoFiles) == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		dirs = append(dirs, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// LoadPackage loads one module package by its root-relative path ("." or
// "" for the root package itself).
func (l *Loader) LoadPackage(rel string) (*Package, error) {
	if rel = path.Clean(rel); rel == "." {
		rel = ""
	}
	ip := l.modpath
	if rel != "" {
		ip += "/" + rel
	}
	return l.LoadDir(filepath.Join(l.root, filepath.FromSlash(rel)), ip, rel)
}

// Load resolves package patterns (a directory, or a directory/... tree;
// "./..." is the whole module) against the loader's module and returns
// every matched package once, sorted by Rel.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	var pkgs []*Package
	for _, pat := range patterns {
		dir, tree := strings.CutSuffix(pat, "/...")
		if tree && (dir == "." || dir == "") {
			dir = l.root
		}
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(l.root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("pattern %s is outside the module at %s", pat, l.root)
		}
		subs := []string{"."}
		if tree {
			if subs, err = packageDirs(abs); err != nil {
				return nil, err
			}
		}
		for _, sub := range subs {
			pkg, err := l.LoadPackage(path.Join(filepath.ToSlash(rel), sub))
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Rel < pkgs[j].Rel })
	return slices.Compact(pkgs), nil
}
