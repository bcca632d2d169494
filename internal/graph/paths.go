package graph

import "fmt"

// Path is an ordered list of directed link IDs from a source host to a
// destination host (the paper's π(s)).
type Path []LinkID

// Resolver computes shortest (minimum hop) host-to-host paths, the paper's
// session path policy. Interior nodes are always routers: the search never
// expands through a host. Ties are broken by link insertion order, so
// results are deterministic.
//
// The path is the one a breadth-first search from the source router records:
// the lexicographically smallest shortest path, by adjacency positions, which
// a walk from the source that always takes the first link staying on a
// shortest path returns. A two-ended search finds those links, so a query
// explores two balls of radius about D/2 instead of one of radius D, whatever
// was asked before it. Routes depend only on growth (the node and link
// counts) and on which links are failed; SetCapacity cannot change one. A
// Resolver is not safe for concurrent use.
type Resolver struct {
	g *Graph

	// Router-to-router links over the first adjNodes nodes and adjLinks
	// links of g, by tail (out) and by head (in). Hosts have none.
	adjNodes, adjLinks int
	out, in            adjacency

	// Per-query scratch. df[n] and db[n] are router n's hops from the source
	// and to the destination, -1 while unknown; fwd and bwd list the routers
	// each side reached, in BFS order. Between queries every entry is -1.
	df, db   []int32
	fwd, bwd []NodeID
}

// adjacency is a packed adjacency list: node n's entries are
// hops[off[n]:off[n+1]], in link insertion order.
type adjacency struct {
	off  []int32
	hops []hop
}

// hop is one packed adjacency entry: the router at the link's other end and
// the link.
type hop struct {
	to   NodeID
	link LinkID
}

func (a *adjacency) of(n NodeID) []hop { return a.hops[a.off[n]:a.off[n+1]] }

// down reports whether link l is failed, reading Failed only while any is.
func (r *Resolver) down(l LinkID) bool { return r.g.failed > 0 && r.g.link(l).failed }

// NewResolver returns a Resolver over g. cacheSize is ignored: a query keeps
// nothing for the next one but scratch space.
func NewResolver(g *Graph, cacheSize int) *Resolver { return &Resolver{g: g} }

// HostPath returns a shortest path from host src to host dst:
// [src→router, router hops..., router→dst]. It returns an error if the hosts
// coincide or no path exists.
func (r *Resolver) HostPath(src, dst NodeID) (Path, error) {
	g := r.g
	if src == dst {
		return nil, fmt.Errorf("graph: source and destination host coincide (%d)", src)
	}
	if !g.Has(src) || !g.Has(dst) || g.node(src).kind != Host || g.node(dst).kind != Host {
		return nil, fmt.Errorf("graph: HostPath endpoints must be hosts (%d, %d)", src, dst)
	}
	up, dstUp := g.link(g.AccessLink(src)), g.link(g.AccessLink(dst))
	srcRouter, dstRouter := up.to, dstUp.to
	if up.failed {
		return nil, fmt.Errorf("graph: access link of host %d is down", src)
	}
	down := dstUp.reverse
	if g.link(down).failed {
		return nil, fmt.Errorf("graph: access link of host %d is down", dst)
	}

	if srcRouter == dstRouter {
		return Path{up.id, down}, nil
	}
	path, err := r.route(srcRouter, dstRouter, 1)
	if err != nil {
		return nil, err
	}
	path[0], path[len(path)-1] = up.id, down
	return path, nil
}

// RouterPath returns a shortest router-level path between two routers.
func (r *Resolver) RouterPath(src, dst NodeID) (Path, error) {
	return r.route(src, dst, 0)
}

// route returns the shortest router-level path from src to dst with pad
// unset slots before and after it, allocated once at that length.
func (r *Resolver) route(src, dst NodeID, pad int) (Path, error) {
	g := r.g
	if !g.Has(src) || !g.Has(dst) || g.node(src).kind != Router || g.node(dst).kind != Router {
		return nil, fmt.Errorf("graph: RouterPath endpoints must be routers (%d, %d)", src, dst)
	}
	if src == dst {
		return Path{}, nil
	}
	r.syncAdjacency()
	defer r.reset()
	d := r.meet(src, dst)
	if d < 0 {
		return nil, fmt.Errorf("graph: no path from router %d to router %d", src, dst)
	}
	r.mark(d)
	return r.walk(src, d, pad), nil
}

// meet grows the search from src and the one towards dst a whole level at a
// time, always on the side with the smaller frontier, until a level reaches a
// router the other side holds, and returns their distance D (-1 if a frontier
// runs out first). Both sides then hold complete levels 0..a and 0..b, and
// met only at the last one, so D = a + b.
func (r *Resolver) meet(src, dst NodeID) int32 {
	r.df[src], r.db[dst] = 0, 0
	r.fwd, r.bwd = append(r.fwd, src), append(r.bwd, dst)
	fHead, bHead, met := 0, 0, false
	for !met {
		fn, bn := len(r.fwd)-fHead, len(r.bwd)-bHead
		switch {
		case fn == 0 || bn == 0:
			return -1
		case fn <= bn:
			r.fwd, fHead, met = r.grow(r.fwd, fHead, r.df, r.db, &r.out)
		default:
			r.bwd, bHead, met = r.grow(r.bwd, bHead, r.db, r.df, &r.in)
		}
	}
	return r.df[r.fwd[len(r.fwd)-1]] + r.db[r.bwd[len(r.bwd)-1]]
}

// grow labels, in dist, the level after list[head:] through adj's up links,
// appends it to list, and reports whether it holds a router other has.
func (r *Resolver) grow(list []NodeID, head int, dist, other []int32, adj *adjacency) ([]NodeID, int, bool) {
	anyFailed := r.g.failed > 0 // hoisted: the hot loop
	end, met := len(list), false
	for _, n := range list[head:end] {
		for _, h := range adj.of(n) {
			if dist[h.to] >= 0 || (anyFailed && r.g.link(h.link).failed) {
				continue
			}
			dist[h.to] = dist[n] + 1
			list = append(list, h.to)
			met = met || other[h.to] >= 0
		}
	}
	return list, end, met
}

// mark records db = d − df for every router only the forward side reached
// that lies on a shortest path, deepest first: one does iff an up link leads
// to such a router one level deeper. A forward-frontier router the backward
// side missed is farther than d − df from dst, so it is skipped.
func (r *Resolver) mark(d int32) {
	frontier := r.df[r.fwd[len(r.fwd)-1]]
	for i := len(r.fwd) - 1; i >= 0; i-- {
		n := r.fwd[i]
		if r.db[n] >= 0 || r.df[n] == frontier {
			continue
		}
		next := d - r.df[n] - 1
		for _, h := range r.out.of(n) {
			if r.db[h.to] == next && !r.down(h.link) {
				r.db[n] = next + 1
				break
			}
		}
	}
}

// walk returns the d-hop path from src, padded by pad unset slots at each
// end, that takes at every router the first up link to one a hop closer.
func (r *Resolver) walk(src NodeID, d int32, pad int) Path {
	path := make(Path, int(d)+2*pad)
	for i, n := int32(0), src; i < d; i++ {
		for _, h := range r.out.of(n) {
			if r.db[h.to] == d-i-1 && !r.down(h.link) {
				path[pad+int(i)], n = h.link, h.to
				break
			}
		}
	}
	return path
}

// reset unlabels what the query labelled, at the cost of what it reached
// rather than of the graph's size.
func (r *Resolver) reset() {
	for _, list := range [][]NodeID{r.fwd, r.bwd} {
		for _, n := range list {
			r.df[n], r.db[n] = -1, -1
		}
	}
	r.fwd, r.bwd = r.fwd[:0], r.bwd[:0]
}

// syncAdjacency rebuilds the adjacency and the scratch if the graph has
// grown since they were built. Node and link structure is append-only, so
// the two counts say so exactly (and a new resolver's are zero, which no
// graph with a node to query has).
func (r *Resolver) syncAdjacency() {
	n := r.g.nodes.n
	if n == r.adjNodes && r.g.links.n == r.adjLinks {
		return
	}
	r.adjNodes, r.adjLinks = n, r.g.links.n
	r.pack()
	r.df, r.db = make([]int32, n), make([]int32, n)
	for i := range r.df {
		r.df[i], r.db[i] = -1, -1
	}
	r.fwd, r.bwd = make([]NodeID, 0, n), make([]NodeID, 0, n)
}

// pack lists every router-to-router link, in link insertion order, as a hop
// to its head under its tail (out) and to its tail under its head (in). One
// pass counts each node's hops, the next writes them in place, backwards.
func (r *Resolver) pack() {
	g := r.g
	r.out = adjacency{off: make([]int32, g.nodes.n+1)}
	r.in = adjacency{off: make([]int32, g.nodes.n+1)}
	inner := func(l *link) bool { return g.node(l.from).kind == Router && g.node(l.to).kind == Router }
	for id := range LinkID(g.links.n) {
		if l := g.link(id); inner(l) {
			r.out.off[l.from]++
			r.in.off[l.to]++
		}
	}
	r.out.alloc()
	r.in.alloc()
	for id := LinkID(g.links.n) - 1; id >= 0; id-- {
		if l := g.link(id); inner(l) {
			r.out.put(l.from, hop{to: l.to, link: id})
			r.in.put(l.to, hop{to: l.from, link: id})
		}
	}
}

// alloc turns off[n], node n's hop count, into the end of its hops.
func (a *adjacency) alloc() {
	for i := 1; i < len(a.off); i++ {
		a.off[i] += a.off[i-1]
	}
	a.hops = make([]hop, a.off[len(a.off)-1])
}

// put writes node n's hops last to first, so off[n] ends at their start.
func (a *adjacency) put(n NodeID, h hop) {
	a.off[n]--
	a.hops[a.off[n]] = h
}

// ValidatePath checks that p is a connected host-to-host path in g whose
// links are all up. Every link has a reverse by construction (Connect adds
// both directions), so a path that passes here can carry every packet of
// the protocol, the upstream ones over the reverse links.
func ValidatePath(g *Graph, p Path) error {
	if len(p) < 2 {
		return fmt.Errorf("graph: path too short (%d links)", len(p))
	}
	for _, l := range p {
		if l < 0 || int(l) >= g.links.n {
			return fmt.Errorf("graph: path names unknown link %d", l)
		}
		if g.link(l).failed {
			return fmt.Errorf("graph: path crosses failed link %d", l)
		}
	}
	for i := 1; i < len(p); i++ {
		prev, cur := g.link(p[i-1]), g.link(p[i])
		if prev.to != cur.from {
			return fmt.Errorf("graph: path disconnected at hop %d (link %d→ link %d)", i, prev.id, cur.id)
		}
		if g.node(cur.from).kind != Router {
			return fmt.Errorf("graph: interior path node %d is not a router", cur.from)
		}
	}
	if g.node(g.link(p[0]).from).kind != Host {
		return fmt.Errorf("graph: path does not start at a host")
	}
	if g.node(g.link(p[len(p)-1]).to).kind != Host {
		return fmt.Errorf("graph: path does not end at a host")
	}
	return nil
}
