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
	"path/filepath"
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

// Loader parses and type-checks packages of one module. A single Loader
// shares its file set and source importer across packages so common
// dependencies are checked once.
type Loader struct {
	fset *token.FileSet
	imp  types.Importer
}

// NewLoader builds a loader backed by the stdlib source importer.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// LoadDir loads the single package in dir. importPath and rel label the
// package for reporting and analyzer scoping; they are passed explicitly
// so fixtures can impersonate any spot of the module tree.
func (l *Loader) LoadDir(dir, importPath, rel string) (*Package, error) {
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
	conf := types.Config{Importer: l.imp}
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

// ModuleRoot walks upward from dir to the enclosing go.mod and returns
// the module root directory and module path.
func ModuleRoot(dir string) (root, modpath string, err error) {
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

// PackageDirs lists every directory under root (inclusive) that contains
// buildable non-test Go files, skipping testdata, vendor, hidden and
// underscore-prefixed directories. Results are sorted and relative to
// root ("." for root itself).
func PackageDirs(root string) ([]string, error) {
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
func (l *Loader) LoadPackage(root, modpath, rel string) (*Package, error) {
	if rel == "." {
		rel = ""
	}
	ip := modpath
	if rel != "" {
		ip = modpath + "/" + rel
	}
	return l.LoadDir(filepath.Join(root, filepath.FromSlash(rel)), ip, rel)
}
