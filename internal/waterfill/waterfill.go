// Package waterfill computes max-min fair rates centrally. It implements
// both Centralized B-Neck (Figure 1 of the paper) and the classic
// Water-Filling algorithm, which serve as each other's cross-check and as
// the correctness oracle for every distributed run (the paper validates its
// simulations the same way, Section IV).
package waterfill

import (
	"errors"
	"fmt"
	"sort"

	"bneck/internal/rate"
)

// Session is one session of a static max-min instance: a demand (possibly
// +∞) and a path given as indexes into the instance's link set.
type Session struct {
	Demand rate.Rate
	Path   []int
}

// Instance is a static max-min fairness problem.
type Instance struct {
	Capacity []rate.Rate // per-link capacity, indexed by link
	Sessions []Session
}

// Validate checks that paths reference existing links and demands are
// positive.
func (in Instance) Validate() error {
	for i, s := range in.Sessions {
		if len(s.Path) == 0 {
			return fmt.Errorf("session %d has an empty path", i)
		}
		for _, e := range s.Path {
			if e < 0 || e >= len(in.Capacity) {
				return fmt.Errorf("session %d references unknown link %d", i, e)
			}
		}
		if s.Demand.Sign() <= 0 && !s.Demand.IsInf() {
			return fmt.Errorf("session %d has non-positive demand %v", i, s.Demand)
		}
	}
	return nil
}

// demandLinks returns an expanded instance in which every finite-demand
// session crosses a private virtual link with capacity equal to its demand —
// the paper's D_s = min(C_e, r_s) trick, which reduces bounded demands to
// the unbounded problem.
func (in Instance) demandLinks() Instance {
	out := Instance{
		Capacity: append([]rate.Rate(nil), in.Capacity...),
		Sessions: make([]Session, len(in.Sessions)),
	}
	for i, s := range in.Sessions {
		path := append([]int(nil), s.Path...)
		if !s.Demand.IsInf() {
			out.Capacity = append(out.Capacity, s.Demand)
			path = append(path, len(out.Capacity)-1)
		}
		out.Sessions[i] = Session{Demand: rate.Inf, Path: path}
	}
	return out
}

// Solve runs Centralized B-Neck (Figure 1) and returns the max-min fair rate
// of every session. It is shorthand for a one-shot Solver; callers solving
// many instances (the per-epoch oracle validation of the dynamic-topology
// experiments) should keep a Solver and reuse its scratch buffers.
func Solve(in Instance) ([]rate.Rate, error) {
	var sv Solver
	return sv.Solve(in)
}

// Solver computes max-min fair rates with reusable scratch buffers: the
// per-link membership lists, the per-session link lists, the counters, the
// virtual demand links and the heap live in flat arrays that survive between
// calls, so solving one instance per reconfiguration epoch allocates almost
// nothing after the first. The zero value is ready to use. A Solver is not
// safe for concurrent use.
type Solver struct {
	resid    []rate.Rate // per-link Ce − ΣFe, real links then virtual (demand) ones
	cnt      []int32     // per-link unassigned members, |Re|
	off      []int32     // link e's members are arena[off[e]:off[e+1]]
	arena    []int32     // member sessions of every link, by link
	soff     []int32     // session s's links are spath[soff[s]:soff[s+1]]
	spath    []int32     // distinct links of every session, its virtual one last
	seen     []int32     // per-link 1 + the last session listed on it: paths are sets
	dirty    []bool      // per-link: resid/cnt moved since the heap key was computed
	heap     []linkShare
	assigned []bool
}

// linkShare is a heap entry: a link and its fair share Be = (Ce − ΣFe)/|Re|
// as of the last time it was computed.
type linkShare struct {
	be   rate.Rate
	link int32
}

// Solve computes the max-min fair rate of every session. The returned slice
// is freshly allocated; everything else is drawn from the Solver's scratch.
//
// It is Figure 1 run one link at a time: a min-heap of the links carrying
// unassigned sessions, keyed by fair share. The minimum link's unassigned
// members X are restricted at its share B; each moves from Re to Fe on the
// other links of its path, which only marks those links dirty. A dirty
// link's key is recomputed when it reaches the top and not before: with
// B ≤ Be, (Ce − ΣFe − B)/(|Re| − 1) ≥ Be, so a surviving link's share never
// falls, a stale key is a lower bound, and a clean top is the true minimum.
// Links of one level come out one after the other at the same B, which is
// Figure 1's L' taken in turns.
func (sv *Solver) Solve(in Instance) ([]rate.Rate, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	nS := len(in.Sessions)
	lambda := make([]rate.Rate, nS)
	if nS == 0 {
		return lambda, nil
	}

	// Bounded demands become virtual private links (the paper's
	// D_s = min(C_e, r_s) trick), numbered after the real ones. One pass
	// lists every session's distinct links and counts every link's members.
	nReal := len(in.Capacity)
	sv.resid = append(sv.resid[:0], in.Capacity...)
	sv.soff = grow(sv.soff, nS+1)
	total := nS
	for _, s := range in.Sessions {
		total += len(s.Path)
	}
	sv.spath = grow(sv.spath, total)[:0]
	sv.seen = grow(sv.seen, nReal)
	clear(sv.seen)
	sv.cnt = grow(sv.cnt, nReal)
	clear(sv.cnt)
	for i, s := range in.Sessions {
		sv.soff[i] = int32(len(sv.spath))
		for _, e := range s.Path {
			// Membership is a set, like the R_e of Figure 1: a path crossing
			// the same link twice still counts once.
			if sv.seen[e] == int32(i)+1 {
				continue
			}
			sv.seen[e] = int32(i) + 1
			sv.cnt[e]++
			sv.spath = append(sv.spath, int32(e))
		}
		if !s.Demand.IsInf() {
			sv.spath = append(sv.spath, int32(len(sv.resid)))
			sv.resid = append(sv.resid, s.Demand)
			sv.cnt = append(sv.cnt, 1)
		}
	}
	sv.soff[nS] = int32(len(sv.spath))
	nL := len(sv.resid)

	// Carve the arena into per-link member lists, using cnt as the fill
	// cursor: it is back at the member count when the lists are full.
	sv.off = grow(sv.off, nL+1)
	sv.off[0] = 0
	for e := 0; e < nL; e++ {
		sv.off[e+1] = sv.off[e] + sv.cnt[e]
		sv.cnt[e] = 0
	}
	sv.arena = grow(sv.arena, len(sv.spath))
	for i := 0; i < nS; i++ {
		for _, e := range sv.spath[sv.soff[i]:sv.soff[i+1]] {
			sv.arena[sv.off[e]+sv.cnt[e]] = int32(i)
			sv.cnt[e]++
		}
	}

	sv.dirty = grow(sv.dirty, nL)
	sv.assigned = grow(sv.assigned, nS)
	clear(sv.dirty)
	clear(sv.assigned)
	h := grow(sv.heap, nL)[:0]
	for e := 0; e < nL; e++ {
		if sv.cnt[e] > 0 {
			h = append(h, linkShare{sv.resid[e].DivInt(int(sv.cnt[e])), int32(e)})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}

	remaining := nS
	level := h[0].be // no key is below the initial minimum, stale or fresh
	for remaining > 0 && len(h) > 0 {
		e, b := h[0].link, h[0].be
		if sv.cnt[e] > 0 && sv.dirty[e] {
			h[0].be = sv.resid[e].DivInt(int(sv.cnt[e]))
			sv.dirty[e] = false
			siftDown(h, 0)
			continue
		}
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown(h, 0)
		if sv.cnt[e] == 0 {
			continue // every member was restricted elsewhere first
		}
		if b.Less(level) {
			return nil, fmt.Errorf("waterfill: level fell from %v to %v at link %d", level, b, e)
		}
		level = b
		if b.IsInf() {
			// Every link still carrying an unassigned session is unlimited,
			// and so is every such session. Taking ∞ out of their residuals
			// would compute ∞ − ∞.
			for s := range lambda {
				if !sv.assigned[s] {
					lambda[s] = rate.Inf
				}
			}
			remaining = 0
			break
		}
		// e is L', its unassigned members are X: restricted at B, and moved
		// from Re to Fe on every other link they cross.
		for _, s := range sv.arena[sv.off[e]:sv.off[e+1]] {
			if sv.assigned[s] {
				continue
			}
			sv.assigned[s] = true
			lambda[s] = b
			remaining--
			for _, x := range sv.spath[sv.soff[s]:sv.soff[s+1]] {
				if x == e {
					continue
				}
				// A link left without members needs no residual any more.
				if sv.cnt[x]--; sv.cnt[x] > 0 {
					sv.resid[x] = sv.resid[x].Sub(b)
					sv.dirty[x] = true
				}
			}
		}
		sv.cnt[e] = 0
	}
	sv.heap = h[:0]
	if remaining > 0 {
		return nil, fmt.Errorf("waterfill: %d sessions left unassigned", remaining)
	}
	return lambda, nil
}

// siftDown restores the min-heap order below h[i]. It is the only heap
// operation there is: nothing is ever inserted and keys only grow.
func siftDown(h []linkShare, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].be.Less(h[c].be) {
			c++
		}
		if !h[c].be.Less(h[i].be) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// grow returns s resized to n elements, reusing its backing array when big
// enough (contents are unspecified; callers overwrite).
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// WaterFilling computes the same rates with the classic progressive-filling
// formulation: repeatedly saturate the single most constrained link and fix
// the sessions crossing it. It uses different tie-breaking from Solve, so
// agreement between the two is a meaningful cross-check (max-min rates are
// unique).
func WaterFilling(in Instance) ([]rate.Rate, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	ex := in.demandLinks()
	nL, nS := len(ex.Capacity), len(ex.Sessions)

	active := make([]map[int]struct{}, nL)
	used := make([]rate.Rate, nL)
	for e := 0; e < nL; e++ {
		active[e] = make(map[int]struct{})
	}
	for i, s := range ex.Sessions {
		for _, e := range s.Path {
			active[e][i] = struct{}{}
		}
	}
	lambda := make([]rate.Rate, nS)
	fixed := make([]bool, nS)
	remaining := nS

	for remaining > 0 {
		// Find the most constrained link among links with active sessions.
		bestLink := -1
		var bestShare rate.Rate
		for e := 0; e < nL; e++ {
			if len(active[e]) == 0 {
				continue
			}
			share := ex.Capacity[e].Sub(used[e]).DivInt(len(active[e]))
			if bestLink == -1 || share.Less(bestShare) {
				bestLink, bestShare = e, share
			}
		}
		if bestLink == -1 {
			return nil, fmt.Errorf("waterfill: %d sessions unconstrained by any link", remaining)
		}
		if bestShare.IsInf() {
			// No link constrains what is left; charging ∞ to the other links
			// would make their next share ∞ − ∞.
			for s := range lambda {
				if !fixed[s] {
					lambda[s] = rate.Inf
				}
			}
			break
		}
		// Fix the sessions crossing it at the fair share, in session order:
		// every crosser receives the same share, but iterating the map
		// directly would mutate it mid-range and make the update order
		// schedule-dependent.
		crossers := make([]int, 0, len(active[bestLink]))
		for s := range active[bestLink] {
			crossers = append(crossers, s)
		}
		sort.Ints(crossers)
		for _, s := range crossers {
			lambda[s] = bestShare
			fixed[s] = true
			remaining--
			for _, e := range ex.Sessions[s].Path {
				if _, member := active[e][s]; !member {
					continue // a path crossing e twice leaves it once
				}
				delete(active[e], s)
				if e != bestLink {
					used[e] = used[e].Add(bestShare)
				}
			}
		}
		active[bestLink] = make(map[int]struct{})
	}
	return lambda, nil
}

// ErrCrossCheck marks rates that WaterFilling or Verify contradicts (see
// Assembler.CrossCheck); test for it with errors.Is.
var ErrCrossCheck = errors.New("waterfill: cross-check mismatch")

// CrossCheck checks rates, in Add order, with the package's two other
// algorithms: WaterFilling must compute the same rates for the current
// instance, and Verify must accept them. Max-min rates are unique, so
// Solve's answer passes; any failure wraps ErrCrossCheck.
func (a *Assembler[L]) CrossCheck(rates []rate.Rate) error {
	want, err := WaterFilling(a.inst)
	if err == nil && len(want) != len(rates) {
		err = fmt.Errorf("%d rates for %d sessions", len(rates), len(want))
	}
	for i := 0; err == nil && i < len(want); i++ {
		if !rates[i].Equal(want[i]) {
			err = fmt.Errorf("session %d of the instance: rate %v, water-filling %v", i, rates[i], want[i])
		}
	}
	if err == nil {
		err = Verify(a.inst, rates)
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCrossCheck, err)
	}
	return nil
}

// Verify checks that rates is the max-min fair allocation for in:
// feasibility (no link oversubscribed, no demand exceeded) and maximality
// (every session is restricted at some bottleneck link, or by its demand).
// Restriction at a bottleneck per Definition 1 of the paper: link e with
// Σ_{s'∈Se} λ_s' = C_e and λ_s = max_{s'∈Se} λ_s'.
func Verify(in Instance, rates []rate.Rate) error {
	if len(rates) != len(in.Sessions) {
		return fmt.Errorf("waterfill: %d rates for %d sessions", len(rates), len(in.Sessions))
	}
	for i, s := range in.Sessions {
		if rates[i].Sign() <= 0 {
			return fmt.Errorf("session %d has non-positive rate %v", i, rates[i])
		}
		if rates[i].Greater(s.Demand) {
			return fmt.Errorf("session %d rate %v exceeds demand %v", i, rates[i], s.Demand)
		}
	}
	load, maxAt := linkLoads(in, rates)
	for e, c := range in.Capacity {
		if load[e].Greater(c) {
			return fmt.Errorf("link %d oversubscribed: %v > %v", e, load[e], c)
		}
	}
	for i, s := range in.Sessions {
		if rates[i].Equal(s.Demand) {
			continue // restricted by its own demand
		}
		restricted := false
		for _, e := range s.Path {
			if load[e].Equal(in.Capacity[e]) && rates[i].Equal(maxAt[e]) {
				restricted = true
				break
			}
		}
		if !restricted {
			return fmt.Errorf("session %d (rate %v) has no bottleneck and is below its demand %v",
				i, rates[i], s.Demand)
		}
	}
	return nil
}

// linkLoads returns, per link, the sum and the maximum of the rates of the
// sessions crossing it. S_e is a set: a path crossing a link twice loads it
// once, as in Solve.
func linkLoads(in Instance, rates []rate.Rate) (load, maxAt []rate.Rate) {
	load = make([]rate.Rate, len(in.Capacity))
	maxAt = make([]rate.Rate, len(in.Capacity))
	seen := make([]int, len(in.Capacity)) // 1 + the last session counted on the link
	for i, s := range in.Sessions {
		for _, e := range s.Path {
			if seen[e] == i+1 {
				continue
			}
			seen[e] = i + 1
			load[e] = load[e].Add(rates[i])
			maxAt[e] = rate.Max(maxAt[e], rates[i])
		}
	}
	return load, maxAt
}
