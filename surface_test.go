package bneck_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var updateSurface = flag.Bool("update", false, "rewrite SURFACE.json from the tree")

// surface is the SURFACE.json ledger: how much code each package is and how
// many values a user can set. It is measured from source, like Go's own
// api/*.txt check, so a growing surface shows up in review as a ledger diff.
type surface struct {
	// Lines counts the non-test lines of every package, by import path.
	Lines map[string]int `json:"lines"`
	// Exported lists package bneck's exported identifiers (functions,
	// types, constants, variables, methods and struct fields).
	Exported []string `json:"exported"`
	// Fields lists the fields of the configuration structs: network.Config,
	// scenario.SimOptions and every exp *Config.
	Fields map[string][]string `json:"fields"`
	// Flags lists the flags each command registers.
	Flags map[string][]string `json:"flags"`
}

// TestSurfaceLedger fails when any count — a package's lines, the bneck
// exports, a config struct's fields, a command's flags — exceeds the
// committed SURFACE.json. A change that grows one runs
// `go test -run TestSurfaceLedger -update .` and says why in CHANGES.md.
func TestSurfaceLedger(t *testing.T) {
	got := measureSurface(t)
	if *updateSurface {
		var out bytes.Buffer
		enc := json.NewEncoder(&out)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("SURFACE.json", out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile("SURFACE.json")
	if err != nil {
		t.Fatal(err)
	}
	var want surface
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	grew := func(what string, got, want int) {
		if got > want {
			t.Errorf("%s grew to %d (ledger %d): update SURFACE.json with -update and say why in CHANGES.md", what, got, want)
		}
	}
	for pkg, n := range got.Lines {
		grew("lines of "+pkg, n, want.Lines[pkg])
	}
	grew("exported identifiers of bneck", len(got.Exported), len(want.Exported))
	for name, fields := range got.Fields {
		grew("fields of "+name, len(fields), len(want.Fields[name]))
	}
	for cmd, flags := range got.Flags {
		grew("flags of cmd/"+cmd, len(flags), len(want.Flags[cmd]))
	}
}

// TestReadmeFlagTables fails when a command's flag table in README.md — the
// table whose header cell is "`cmd/<name>` flag" — names other flags than
// the command registers, so a flag and its README row come and go together.
func TestReadmeFlagTables(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	tables := readmeFlagTables(string(readme))
	flags := measureSurface(t).Flags
	for _, cmd := range []string{"bneck", "experiments", "mc"} {
		if got, want := tables[cmd], flags[cmd]; !slices.Equal(got, want) {
			t.Errorf("README.md's cmd/%s flag table names %q; the command registers %q", cmd, got, want)
		}
	}
}

// flagToken matches a -flag token not inside a hyphenated word.
var flagToken = regexp.MustCompile(`(?:^|[^\w-])-([a-z][a-z0-9-]*)`)

// readmeFlagTables maps each command with a flag table to the distinct
// -flag tokens of the table's rows, sorted.
func readmeFlagTables(md string) map[string][]string {
	out := map[string][]string{}
	cmd := ""
	for _, line := range strings.Split(md, "\n") {
		switch name, header := strings.CutPrefix(line, "| `cmd/"); {
		case header:
			cmd, _, _ = strings.Cut(name, "`")
			out[cmd] = []string{}
		case !strings.HasPrefix(line, "|"):
			cmd = ""
		case cmd != "":
			for _, m := range flagToken.FindAllStringSubmatch(line, -1) {
				out[cmd] = append(out[cmd], m[1])
			}
		}
	}
	for cmd, fs := range out {
		slices.Sort(fs)
		out[cmd] = slices.Compact(fs)
	}
	return out
}

func measureSurface(t *testing.T) surface {
	t.Helper()
	s := surface{
		Lines:  map[string]int{},
		Fields: map[string][]string{},
		Flags:  map[string][]string{},
	}
	files := map[string][]*ast.File{} // by package import path
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || d.Name() == "benchmark" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			return err
		}
		pkg := "bneck"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		s.Lines[pkg] += bytes.Count(src, []byte("\n"))
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Exported = exportedIdents(files["bneck"])
	configs := map[string]func(name string) bool{
		"bneck/internal/network":  func(name string) bool { return name == "Config" },
		"bneck/internal/scenario": func(name string) bool { return name == "SimOptions" },
		"bneck/internal/exp":      func(name string) bool { return strings.HasSuffix(name, "Config") },
	}
	for pkg, match := range configs {
		for _, f := range files[pkg] {
			eachStruct(f, func(name string, st *ast.StructType) {
				if match(name) {
					s.Fields[filepath.Base(pkg)+"."+name] = fieldNames(st)
				}
			})
		}
	}
	for pkg, fs := range files {
		if cmd, ok := strings.CutPrefix(pkg, "bneck/cmd/"); ok {
			s.Flags[cmd] = registeredFlags(fs)
		}
	}
	return s
}

// exportedIdents lists a package's exported top-level names, exported
// methods as Type.Method and exported struct fields as Type.Field.
func exportedIdents(files []*ast.File) []string {
	var out []string
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					out = append(out, d.Name.Name)
				} else if recv := recvName(d.Recv.List[0].Type); ast.IsExported(recv) {
					out = append(out, recv+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if !sp.Name.IsExported() {
							continue
						}
						out = append(out, sp.Name.Name)
						if st, ok := sp.Type.(*ast.StructType); ok {
							for _, field := range fieldNames(st) {
								out = append(out, sp.Name.Name+"."+field)
							}
						}
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							if n.IsExported() {
								out = append(out, n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

func recvName(x ast.Expr) string {
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func eachStruct(f *ast.File, visit func(name string, st *ast.StructType)) {
	for _, decl := range f.Decls {
		if d, ok := decl.(*ast.GenDecl); ok {
			for _, spec := range d.Specs {
				if sp, ok := spec.(*ast.TypeSpec); ok {
					if st, ok := sp.Type.(*ast.StructType); ok {
						visit(sp.Name.Name, st)
					}
				}
			}
		}
	}
}

// fieldNames lists a struct's exported fields.
func fieldNames(st *ast.StructType) []string {
	var out []string
	for _, field := range st.Fields.List {
		for _, n := range field.Names {
			if n.IsExported() {
				out = append(out, n.Name)
			}
		}
	}
	return out
}

// registeredFlags lists the flags a command registers through the flag
// package, sorted; a name that is not a literal is listed as its source.
func registeredFlags(files []*ast.File) []string {
	out := []string{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" || !flagFuncs[sel.Sel.Name] {
				return true
			}
			arg := 0
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				arg = 1 // XxxVar(&v, name, …), Var(value, name, …)
			}
			if arg >= len(call.Args) {
				return true
			}
			out = append(out, flagName(call.Args[arg]))
			return true
		})
	}
	sort.Strings(out)
	return out
}

// flagName renders a flag-name argument: the literal's value, or the
// expression's source for a computed name.
func flagName(x ast.Expr) string {
	if lit, ok := x.(*ast.BasicLit); ok && lit.Kind == token.STRING {
		if v, err := strconv.Unquote(lit.Value); err == nil {
			return v
		}
	}
	return "<" + types.ExprString(x) + ">"
}

var flagFuncs = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}
