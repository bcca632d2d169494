package waterfill

import "bneck/internal/rate"

// Assembler turns sessions whose paths name links by a caller's own dense
// identifiers (graph.LinkID for both transports; waterfill imports no graph)
// into an Instance over just the links those paths use, and solves it. The
// link index, the path arena, the instance and the Solver are kept between
// instances, so validating a churning run once per epoch allocates only the
// result. The zero value with Capacity set is ready to use. An Assembler is
// not safe for concurrent use.
type Assembler[L ~int | ~int32] struct {
	// Capacity reports a link's current capacity. It is asked once per
	// instance for every distinct link the added paths cross.
	Capacity func(L) rate.Rate

	solver Solver
	inst   Instance
	links  []L     // instance link → caller's link, in first-use order
	index  []int32 // caller's link → 1 + instance link; 0 when not in the instance
	paths  []int   // backing array of the instance's session paths
}

// Reset starts a new, empty instance.
func (a *Assembler[L]) Reset() {
	for _, l := range a.links {
		a.index[l] = 0
	}
	a.links = a.links[:0]
	a.inst.Capacity = a.inst.Capacity[:0]
	a.inst.Sessions = a.inst.Sessions[:0]
	a.paths = a.paths[:0]
}

// Add appends a session; Solve reports rates in the order of the Add calls.
func (a *Assembler[L]) Add(demand rate.Rate, path []L) {
	start := len(a.paths)
	for _, l := range path {
		for int(l) >= len(a.index) {
			a.index = append(a.index, 0)
		}
		i := a.index[l]
		if i == 0 {
			a.links = append(a.links, l)
			a.inst.Capacity = append(a.inst.Capacity, a.Capacity(l))
			i = int32(len(a.links))
			a.index[l] = i
		}
		// A growing arena moves; the sessions added before keep the array
		// they were cut from, whose contents no longer change.
		a.paths = append(a.paths, int(i-1))
	}
	a.inst.Sessions = append(a.inst.Sessions, Session{
		Demand: demand,
		Path:   a.paths[start:len(a.paths):len(a.paths)],
	})
}

// Solve returns the max-min fair rates of the sessions added since Reset, in
// Add order, in a freshly allocated slice.
func (a *Assembler[L]) Solve() ([]rate.Rate, error) {
	return a.solver.Solve(a.inst)
}
