// Package analysis is bnecklint's analyzer suite: five repo-specific static
// checks that machine-enforce the determinism and lock-discipline invariants
// the simulator's correctness claims rest on (DESIGN.md §12). The paper's
// quiescence/validation methodology only means something if every run is
// reproducible: creator-keyed event order, no wall-clock or unseeded
// randomness in deterministic packages, the live runtime's documented lock
// order, and exact 128-bit rate arithmetic. Each analyzer makes one of
// those invariant classes unwritable instead of merely documented.
//
// The framework mirrors golang.org/x/tools/go/analysis — Analyzer, Pass,
// Diagnostic, an analysistest-style fixture harness — but is built on the
// standard library alone (go/ast, go/parser, go/types with a source
// importer), so the module keeps its zero-dependency property.
//
// Analyzers are steered in source by //bneck: directives (written exactly
// like //go: directives — no space, attached as a doc or trailing comment):
//
//	//bneck:orderfree        this map loop is commutative; order cannot leak
//	//bneck:wallclock        this wall-clock/env read is sanctioned
//	//bneck:float            float arithmetic for reporting only
//	//bneck:global           blessed funnel for un-keyed (external) events
//	//bneck:keyed            assigns event keys / pushes into an event heap
//	//bneck:lock <tier>      lock field; tier is mu, rate or mailbox
//	//bneck:locks <tier...>  calling this function acquires these tiers
//
// Every directive is an escape hatch with a documented burden: the line it
// sits on should say why the invariant holds anyway.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one static check. Run inspects a type-checked package
// through its Pass and reports diagnostics.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI flags.
	Name string
	// Doc is a one-line description (shown by bnecklint -list).
	Doc string
	// Match reports whether the analyzer applies to a package import path.
	// The driver consults it; the test harness bypasses it so fixture
	// packages are always analyzed.
	Match func(pkgPath string) bool
	// Run performs the analysis.
	Run func(*Pass)
}

// A Pass is one (analyzer, package) execution: the syntax, the type
// information, and the diagnostic sink.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags      []Diagnostic
	directives map[*ast.File][]directive
}

// A Diagnostic is one reported finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostics returns the findings reported so far, in position order.
func (p *Pass) Diagnostics() []Diagnostic {
	sort.SliceStable(p.diags, func(i, j int) bool { return p.diags[i].Pos < p.diags[j].Pos })
	return p.diags
}

// directive is one //bneck:NAME [args...] comment, recorded by file line.
type directive struct {
	name string
	args []string
	line int
}

const directivePrefix = "//bneck:"

// parseDirective splits a //bneck:NAME arg arg comment into its parts.
func parseDirective(text string) (name string, args []string, ok bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return "", nil, false
	}
	fields := strings.Fields(strings.TrimPrefix(text, directivePrefix))
	if len(fields) == 0 {
		return "", nil, false
	}
	return fields[0], fields[1:], true
}

// fileDirectives lazily indexes a file's //bneck: comments.
func (p *Pass) fileDirectives(f *ast.File) []directive {
	if p.directives == nil {
		p.directives = make(map[*ast.File][]directive)
	}
	if ds, ok := p.directives[f]; ok {
		return ds
	}
	var ds []directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if name, args, ok := parseDirective(c.Text); ok {
				ds = append(ds, directive{name: name, args: args, line: p.Fset.Position(c.Pos()).Line})
			}
		}
	}
	p.directives[f] = ds
	return ds
}

// fileOf returns the *ast.File containing pos.
func (p *Pass) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// lineAnnotated reports whether a //bneck:name directive sits on the same
// line as pos or on the line immediately above it — the escape-hatch
// placement for statements (trailing comment or its own line just before).
func (p *Pass) lineAnnotated(pos token.Pos, name string) bool {
	f := p.fileOf(pos)
	if f == nil {
		return false
	}
	line := p.Fset.Position(pos).Line
	for _, d := range p.fileDirectives(f) {
		if d.name == name && (d.line == line || d.line == line-1) {
			return true
		}
	}
	return false
}

// commentGroupDirective scans a doc/trailing comment group for a directive.
func commentGroupDirective(cg *ast.CommentGroup, name string) ([]string, bool) {
	if cg == nil {
		return nil, false
	}
	for _, c := range cg.List {
		if n, args, ok := parseDirective(c.Text); ok && n == name {
			return args, true
		}
	}
	return nil, false
}

// funcAnnotated reports whether fn's doc comment carries //bneck:name,
// returning the directive's arguments.
func funcAnnotated(fn *ast.FuncDecl, name string) ([]string, bool) {
	return commentGroupDirective(fn.Doc, name)
}

// forEachFunc invokes visit for every function declaration with a body.
func (p *Pass) forEachFunc(visit func(fn *ast.FuncDecl)) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				visit(fn)
			}
		}
	}
}

// inPackages returns a Match function accepting exactly the given import
// paths (fixture packages are matched by the test harness, not here).
func inPackages(paths ...string) func(string) bool {
	set := make(map[string]bool, len(paths))
	for _, p := range paths {
		set[p] = true
	}
	return func(pkg string) bool { return set[pkg] }
}

// DeterministicPackages are the packages whose execution must be a pure
// function of their inputs: the simulator engine, the control plane (with
// the path policy), the simulated transport, the experiment harness, the
// scenario runner, the waterfill oracle and the topology generators
// (byte-identical graphs per seed is what makes the determinism tests
// meaningful). detrange and walltime enforce it; the examples that promise
// reproducible output opt into walltime too.
var DeterministicPackages = []string{
	"bneck/internal/sim",
	"bneck/internal/control",
	"bneck/internal/network",
	"bneck/internal/exp",
	"bneck/internal/scenario",
	"bneck/internal/waterfill",
	"bneck/internal/topology",
}

// namedType returns the named type (and its package) behind t, unwrapping
// pointers and aliases.
func namedType(t types.Type) (*types.Named, bool) {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(t)
		case *types.Named:
			return u, true
		default:
			return nil, false
		}
	}
}

// typeIs reports whether t is (a pointer to) the named type pkgPath.name.
func typeIs(t types.Type, pkgPath, name string) bool {
	n, ok := namedType(t)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != name {
		return false
	}
	if obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (method or package-level function), or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}
