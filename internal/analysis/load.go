package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// NewPass prepares a Pass running az over the package.
func (pkg *Package) NewPass(az *Analyzer) *Pass {
	return &Pass{
		Analyzer: az,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
	}
}

// Loader parses and type-checks packages of this module without any
// go/packages dependency: module-local import paths resolve to directories
// under the module root, everything else (the standard library) goes through
// the go/importer source importer, which works offline from GOROOT.
type Loader struct {
	ModRoot string
	ModPath string
	Fset    *token.FileSet

	std     types.Importer
	loaded  map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader for the module rooted at modRoot (its go.mod
// names the module path).
func NewLoader(modRoot string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: reading go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", modRoot)
	}
	fset := token.NewFileSet()
	return &Loader{
		ModRoot: modRoot,
		ModPath: modPath,
		Fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		loaded:  make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// Import implements types.Importer: module-local paths load recursively,
// anything else defers to the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		pkg, err := l.LoadPath(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// LoadPath loads a module-local package by import path.
func (l *Loader) LoadPath(path string) (*Package, error) {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
	return l.LoadDir(filepath.Join(l.ModRoot, filepath.FromSlash(rel)), path)
}

// LoadDir parses and type-checks the package in dir under the given import
// path. Test files are skipped: the invariants guard the shipped simulator,
// and in-package test files would change the package's type universe.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if pkg, ok := l.loaded[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		if !buildTagOK(src) {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.loaded[path] = pkg
	return pkg, nil
}

// buildTagOK reports whether the file's //go:build constraint (if any) is
// satisfied by the default build: no custom tags, the host OS/arch, gc, and
// any go1.N version tag. The analysis must see exactly the files a plain
// `go build` compiles — internal/network's bug-double files, for example,
// gate mutually exclusive const declarations behind mc_* tags, and loading
// them all at once is a redeclaration error, not a finding.
func buildTagOK(src []byte) bool {
	for _, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "//") {
			if expr, err := constraint.Parse(line); err == nil {
				return expr.Eval(defaultBuildTag)
			}
			continue
		}
		// Anything else (the package clause, a /* block) ends the region
		// where a //go:build line may appear.
		break
	}
	return true
}

func defaultBuildTag(tag string) bool {
	return tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc" ||
		strings.HasPrefix(tag, "go1.")
}

// Expand resolves CLI package patterns relative to the module root: "./..."
// (every package in the module), "./dir/..." (every package under dir), or a
// single "./dir" (a trailing slash is ignored). Results are import paths in
// sorted order.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(path string) {
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	for _, pat := range patterns {
		pat, recursive := strings.CutSuffix(pat, "/...")
		// Clean drops "./" and a trailing slash: "./dir/" names dir.
		if pat = filepath.ToSlash(filepath.Clean(pat)); pat == "." {
			pat = ""
		}
		root := filepath.Join(l.ModRoot, filepath.FromSlash(pat))
		if !recursive {
			path := l.ModPath
			if pat != "" {
				path += "/" + pat
			}
			add(path)
			continue
		}
		err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
					name == "testdata" || name == "vendor") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
				return nil
			}
			rel, err := filepath.Rel(l.ModRoot, filepath.Dir(p))
			if err != nil {
				return err
			}
			path := l.ModPath
			if rel != "." {
				path += "/" + filepath.ToSlash(rel)
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
	}
	sort.Strings(out)
	return out, nil
}

// FindModRoot walks up from dir to the nearest go.mod.
func FindModRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		dir = parent
	}
}
