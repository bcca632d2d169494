package analysis

import (
	"go/ast"
	"go/types"
)

// Eventkey enforces the creator-keyed scheduling discipline that makes runs
// deterministic (DESIGN.md §10): every event the engine executes is ordered
// by (time, creator node, creator sequence), and that key is only assigned
// by the blessed constructors — sim.Engine.SendFrom, reached in
// the transport through its per-node port. Two bypass shapes are flagged:
//
//   - in the transport (internal/network): a direct call to the engine's
//     ExtCreator entry points At/After/DaemonAt. Those schedule un-keyed
//     external events; the stale-incarnation rejoin bug slipped through
//     exactly this kind of side door. All external scheduling must flow
//     through the one funnel annotated //bneck:global, so churn, dynamics
//     and sampling share a single order;
//
//   - in the engine package itself: a push into an eventQueue from any
//     function not annotated //bneck:keyed, so no event exists without a
//     total-order key; the queue's own refill moves events without push.
var Eventkey = &Analyzer{
	Name:  "eventkey",
	Doc:   "require creator-keyed scheduling; flag un-keyed engine bypasses",
	Match: inPackages("bneck/internal/network", "bneck/internal/sim"),
	Run:   runEventkey,
}

// extCreatorEntryPoints are the engine methods that schedule with the
// shared ExtCreator bucket instead of a node key.
var extCreatorEntryPoints = map[string]bool{"At": true, "After": true, "DaemonAt": true}

func runEventkey(pass *Pass) {
	pass.forEachFunc(func(fn *ast.FuncDecl) {
		_, global := funcAnnotated(fn, "global")
		_, keyed := funcAnnotated(fn, "keyed")
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s, ok := pass.Info.Selections[sel]
			if !ok || s.Kind() != types.MethodVal {
				return true
			}
			name := sel.Sel.Name

			// Rule 1 (transport side): ExtCreator scheduling outside the
			// annotated global-event funnel.
			if extCreatorEntryPoints[name] && isEngineType(s.Recv()) {
				if !global && !pass.lineAnnotated(call.Pos(), "global") {
					pass.Reportf(call.Pos(), "direct %s call schedules an un-keyed (ExtCreator) event: cross-node traffic must use the creator-keyed SendFrom constructor, and external events must flow through the //bneck:global funnel", name)
				}
				return true
			}

			// Rule 2 (engine side): heap pushes outside keyed constructors.
			if name == "push" && isEventQueue(pass, s.Recv()) {
				if !keyed && !pass.lineAnnotated(call.Pos(), "keyed") {
					pass.Reportf(call.Pos(), "direct event-heap push bypasses the (time, creator, creator-seq) keying: only //bneck:keyed constructors may push, so every event carries a total-order key")
				}
				return true
			}
			return true
		})
	})
}

// isEngineType reports whether t is (a pointer to) the simulator engine, by
// name, so the engine package itself and a fixture modeling it both match.
func isEngineType(t types.Type) bool {
	n, ok := namedType(t)
	return ok && n.Obj().Name() == "Engine" && n.Obj().Pkg() != nil
}

// isEventQueue reports whether t is an event-queue heap of the package under
// analysis (the engine package, or an analyzer fixture modeling it).
func isEventQueue(pass *Pass, t types.Type) bool {
	n, ok := namedType(t)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "eventQueue" && obj.Pkg() == pass.Pkg
}
