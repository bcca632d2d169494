package analysis

import (
	"go/ast"
	"go/types"
)

// Detrange flags iteration over a map in a deterministic package. Go
// randomizes map order per run, so any map loop whose effects depend on
// visit order — appending to a slice, emitting output, accumulating
// floating-point sums, scheduling events — silently breaks the repo's
// byte-identical-runs contract (CSVs, golden scenario assertions, the
// worker-count determinism suite).
//
// Two shapes are permitted without annotation:
//
//   - the key-collection idiom: a loop whose body only appends the keys to
//     a slice that the same function later sorts (collect → sort → range the
//     slice is exactly the fix this analyzer asks for);
//   - an empty body (counting via len is better still, but an empty body
//     cannot observe order).
//
// Anything else needs a //bneck:orderfree directive on or above the loop,
// asserting the body is commutative (a pure merge into an order-insensitive
// aggregate) with a one-line justification.
var Detrange = &Analyzer{
	Name:  "detrange",
	Doc:   "flag unsorted map iteration in deterministic packages",
	Match: inPackages(DeterministicPackages...),
	Run:   runDetrange,
}

func runDetrange(pass *Pass) {
	pass.forEachFunc(func(fn *ast.FuncDecl) {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.Info.Types[rng.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if pass.lineAnnotated(rng.Pos(), "orderfree") {
				return true
			}
			if len(rng.Body.List) == 0 {
				return true
			}
			if collectsSortedKeys(pass, fn, rng) {
				return true
			}
			pass.Reportf(rng.Pos(), "map iteration order is randomized: sort the keys first, or annotate //bneck:orderfree with why the body commutes")
			return true
		})
	})
}

// collectsSortedKeys recognizes the key-collection idiom: every statement of
// the loop body is `s = append(s, ...)` for slice variables that the
// enclosing function later passes to a sort.
func collectsSortedKeys(pass *Pass, fn *ast.FuncDecl, rng *ast.RangeStmt) bool {
	var targets []types.Object
	for _, stmt := range rng.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		lhs, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
		if !ok {
			return false
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return false
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
			return false
		}
		obj := pass.Info.Uses[lhs]
		if obj == nil {
			obj = pass.Info.Defs[lhs]
		}
		if obj == nil {
			return false
		}
		targets = append(targets, obj)
	}
	if len(targets) == 0 {
		return false
	}
	for _, obj := range targets {
		if !sortedAfter(pass, fn, rng, obj) {
			return false
		}
	}
	return true
}

// sortFuncs are the sorters the key-collection idiom accepts.
var sortFuncs = map[string]map[string]bool{
	"sort": {
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
		"Strings": true, "Ints": true, "Float64s": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

// sortedAfter reports whether obj is passed to a recognized sort function
// somewhere in fn after the range loop.
func sortedAfter(pass *Pass, fn *ast.FuncDecl, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || found {
			return true
		}
		fun := calleeFunc(pass.Info, call)
		if fun == nil || fun.Pkg() == nil {
			return true
		}
		names, ok := sortFuncs[fun.Pkg().Path()]
		if !ok || !names[fun.Name()] || len(call.Args) == 0 {
			return true
		}
		if arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && pass.Info.Uses[arg] == obj {
			found = true
		}
		return true
	})
	return found
}
