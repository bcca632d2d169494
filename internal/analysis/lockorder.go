package analysis

import (
	"go/ast"
	"go/types"
)

// Lockorder machine-checks the live runtime's documented two-tier locking
// (live.go, Runtime): the only legal acquisition order is
//
//	mu (runtime lifecycle) → incarnation rate → actor mailbox
//
// Lock fields declare their tier with //bneck:lock mu|rate|mailbox;
// functions that acquire tiers internally declare them with
// //bneck:locks <tier...> so call sites are checked too. The analyzer walks
// each function linearly (branch bodies are explored with a copy of the
// held set) and reports:
//
//   - acquiring an outer-or-equal tier while an inner one is held — in
//     particular taking rt.mu while holding a rate lock, the deadlock
//     shape the documented order exists to exclude;
//   - holding two rate locks at once (rate locks are peers, one per
//     incarnation, and never nest);
//   - a raw channel operation while any runtime lock is held — mailbox
//     traffic under a lock must go through the non-blocking actor.enqueue,
//     never a blocking send.
//
// The analysis is intra-procedural and defer-aware (a deferred Unlock pins
// the lock for the rest of the function, which is conservative and exact
// for the runtime's lock/defer style).
var Lockorder = &Analyzer{
	Name:  "lockorder",
	Doc:   "enforce the live runtime's mu → rate → mailbox lock order",
	Match: inPackages("bneck/internal/live"),
	Run:   runLockorder,
}

// lock tiers, outermost first.
const (
	tierMu = iota
	tierRate
	tierMailbox
)

var tierNames = map[string]int{"mu": tierMu, "rate": tierRate, "mailbox": tierMailbox}
var tierLabel = [...]string{"mu", "a rate lock", "an actor mailbox"}

type heldLock struct {
	tier  int
	field *types.Var // nil for tiers acquired via an annotated call
}

type lockIndex struct {
	fields map[*types.Var]int    // lock field → tier
	funcs  map[*types.Func][]int // function → tiers it acquires internally
}

// buildLockIndex collects the //bneck:lock field and //bneck:locks function
// annotations of the package under analysis.
func buildLockIndex(pass *Pass) *lockIndex {
	idx := &lockIndex{
		fields: make(map[*types.Var]int),
		funcs:  make(map[*types.Func][]int),
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, fld := range st.Fields.List {
						args, ok := commentGroupDirective(fld.Doc, "lock")
						if !ok {
							args, ok = commentGroupDirective(fld.Comment, "lock")
						}
						if !ok || len(args) == 0 {
							continue
						}
						tier, known := tierNames[args[0]]
						if !known {
							pass.Reportf(fld.Pos(), "unknown //bneck:lock tier %q (want mu, rate or mailbox)", args[0])
							continue
						}
						for _, name := range fld.Names {
							if v, ok := pass.Info.Defs[name].(*types.Var); ok {
								idx.fields[v] = tier
							}
						}
					}
				}
			case *ast.FuncDecl:
				args, ok := funcAnnotated(d, "locks")
				if !ok {
					continue
				}
				fn, _ := pass.Info.Defs[d.Name].(*types.Func)
				if fn == nil {
					continue
				}
				for _, a := range args {
					tier, known := tierNames[a]
					if !known {
						pass.Reportf(d.Pos(), "unknown //bneck:locks tier %q (want mu, rate or mailbox)", a)
						continue
					}
					idx.funcs[fn] = append(idx.funcs[fn], tier)
				}
			}
		}
	}
	return idx
}

// lockField resolves the receiver of an x.Lock()/x.Unlock() call to an
// annotated lock field, unwrapping selector chains like inc.rmu or rt.links[i].a.mu.
func (idx *lockIndex) lockField(info *types.Info, recv ast.Expr) (*types.Var, int, bool) {
	sel, ok := ast.Unparen(recv).(*ast.SelectorExpr)
	if !ok {
		return nil, 0, false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil, 0, false
	}
	v, ok := s.Obj().(*types.Var)
	if !ok {
		return nil, 0, false
	}
	tier, ok := idx.fields[v]
	return v, tier, ok
}

func runLockorder(pass *Pass) {
	idx := buildLockIndex(pass)
	if len(idx.fields) == 0 && len(idx.funcs) == 0 {
		return
	}
	pass.forEachFunc(func(fn *ast.FuncDecl) {
		walkLocks(pass, idx, fn.Body.List, nil)
		// Function literals run in their own invocation context (goroutine
		// bodies, pooled closures): analyze each exactly once, fresh.
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				walkLocks(pass, idx, lit.Body.List, nil)
			}
			return true
		})
	})
}

// acquire checks that taking tier is legal given the held set.
func acquire(pass *Pass, held []heldLock, tier int, pos ast.Node) bool {
	for _, h := range held {
		if h.tier < tier {
			continue // strictly outer: in order
		}
		switch {
		case h.tier == tierRate && tier == tierRate:
			pass.Reportf(pos.Pos(), "acquires a rate lock while another rate lock is held: rate locks are peers and never nest (lock order mu → rate → mailbox, live.Runtime)")
		case h.tier == tier:
			pass.Reportf(pos.Pos(), "re-acquires %s while it is already held (self-deadlock)", tierLabel[tier])
		default:
			pass.Reportf(pos.Pos(), "acquires %s while holding %s: the documented order is mu → rate → mailbox (live.Runtime)", tierLabel[tier], tierLabel[h.tier])
		}
		return false
	}
	return true
}

// walkLocks linearly interprets stmts, threading the held-lock set; nested
// control-flow bodies are explored with a copy (locks must balance within
// their block). Function literals start fresh: they run on their own
// goroutine or are invoked elsewhere.
func walkLocks(pass *Pass, idx *lockIndex, stmts []ast.Stmt, held []heldLock) []heldLock {
	for _, stmt := range stmts {
		held = walkLockStmt(pass, idx, stmt, held)
	}
	return held
}

func walkLockStmt(pass *Pass, idx *lockIndex, stmt ast.Stmt, held []heldLock) []heldLock {
	branch := func(body ...ast.Stmt) {
		walkLocks(pass, idx, body, append([]heldLock(nil), held...))
	}
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		return walkLockExpr(pass, idx, s.X, held)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			held = walkLockExpr(pass, idx, rhs, held)
		}
		return held
	case *ast.DeferStmt:
		// A deferred Unlock releases at return; for linear analysis the lock
		// simply stays held to the end. Deferred Locks (pathological) still
		// get their acquisition check.
		if call := s.Call; call != nil {
			if name, v, tier, ok := lockCall(pass, idx, call); ok && name == "Lock" {
				if acquire(pass, held, tier, s) {
					held = append(held, heldLock{tier: tier, field: v})
				}
			}
		}
		return held
	case *ast.SendStmt:
		if len(held) > 0 {
			pass.Reportf(s.Pos(), "channel send while holding %s: mailbox sends under runtime locks must use the non-blocking actor enqueue, never a raw channel", tierLabel[maxTier(held)])
		}
		return held
	case *ast.BlockStmt:
		branch(s.List...)
		return held
	case *ast.IfStmt:
		branch(s.Body.List...)
		if s.Else != nil {
			branch(s.Else)
		}
		return held
	case *ast.ForStmt:
		branch(s.Body.List...)
		return held
	case *ast.RangeStmt:
		branch(s.Body.List...)
		return held
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				branch(cc.Body...)
			}
		}
		return held
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				branch(cc.Body...)
			}
		}
		return held
	case *ast.SelectStmt:
		if len(held) > 0 {
			pass.Reportf(s.Pos(), "select (blocking channel wait) while holding %s", tierLabel[maxTier(held)])
		}
		return held
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			held = walkLockExpr(pass, idx, r, held)
		}
		return held
	case *ast.GoStmt:
		return held // new goroutine: fresh lock context (FuncLit walked via Inspect below)
	default:
		return held
	}
}

// lockCall classifies call as a Lock/RLock/Unlock/RUnlock on an annotated
// lock field.
func lockCall(pass *Pass, idx *lockIndex, call *ast.CallExpr) (name string, v *types.Var, tier int, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", nil, 0, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		name = "Lock"
	case "Unlock", "RUnlock":
		name = "Unlock"
	default:
		return "", nil, 0, false
	}
	v, tier, ok = idx.lockField(pass.Info, sel.X)
	return name, v, tier, ok
}

func maxTier(held []heldLock) int {
	m := held[0].tier
	for _, h := range held {
		if h.tier > m {
			m = h.tier
		}
	}
	return m
}

// walkLockExpr handles the expression forms that matter: lock method calls,
// calls to //bneck:locks-annotated functions, receives, and function
// literals (analyzed fresh).
func walkLockExpr(pass *Pass, idx *lockIndex, expr ast.Expr, held []heldLock) []heldLock {
	switch e := ast.Unparen(expr).(type) {
	case *ast.CallExpr:
		if name, v, tier, ok := lockCall(pass, idx, e); ok {
			if name == "Lock" {
				if acquire(pass, held, tier, e) {
					held = append(held, heldLock{tier: tier, field: v})
				}
			} else {
				for i := len(held) - 1; i >= 0; i-- {
					if held[i].field == v {
						held = append(held[:i:i], held[i+1:]...)
						break
					}
				}
			}
			return held
		}
		if fn := calleeFunc(pass.Info, e); fn != nil {
			for _, tier := range idx.funcs[fn] {
				acquire(pass, held, tier, e)
			}
		}
		for _, arg := range e.Args {
			held = walkLockExpr(pass, idx, arg, held)
		}
		return held
	case *ast.UnaryExpr:
		if e.Op.String() == "<-" && len(held) > 0 {
			pass.Reportf(e.Pos(), "channel receive while holding %s", tierLabel[maxTier(held)])
		}
		return held
	case *ast.FuncLit:
		return held // analyzed separately, in its own invocation context
	default:
		return held
	}
}
