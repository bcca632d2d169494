package graph

import (
	"fmt"
)

// Path is an ordered list of directed link IDs from a source host to a
// destination host (the paper's π(s)).
type Path []LinkID

// Resolver computes shortest (minimum hop) host-to-host paths, the paper's
// session path policy. Interior nodes are always routers: the search never
// expands through a host. Ties are broken by link insertion order, so
// results are deterministic.
//
// A query costs what it needs. The search walks a packed router-to-router
// adjacency, rebuilt only when the graph has grown. One breadth-first tree
// per source router is cached, and a tree is partial: its frontier advances
// only until the queried destination is labelled, and a later query on the
// same tree resumes from the saved frontier. That is exact — a BFS label is
// final once set, and nothing about an unexamined link is read before its
// tail is expanded. FailLink and RestoreLink make a tree stale (it restarts
// on its next use); SetCapacity does not, because capacity cannot change a
// min-hop path. Resolving many sessions is cheapest when they are grouped
// by source router (the experiment harness sorts its workloads
// accordingly). A Resolver is not safe for concurrent use.
type Resolver struct {
	g     *Graph
	count int // most trees ever cached (NewResolver's cacheSize)

	// Router-to-router adjacency over the first adjNodes nodes and adjLinks
	// links of g: node n's router neighbours are hops[off[n]:off[n+1]], in
	// link insertion order. Hosts have none.
	adjNodes, adjLinks int
	off                []int32
	hops               []hop

	// limit is how many trees are kept on a graph of this size: count,
	// capped so that their arrays stay within treeCacheBytes.
	limit int
	cache map[NodeID]*bfsTree
	lru   bfsTree // sentinel of the recency ring: next is most recent, prev least
}

// hop is one packed adjacency entry: the neighbouring router and the link
// that reaches it.
type hop struct {
	to   NodeID
	link LinkID
}

// treeCacheBytes bounds the memory of one resolver's cached trees. A tree
// holds up to two 4-byte entries per node (parentLink and the frontier), so
// graphs of up to 2048 nodes keep every one of 256 trees while the
// 10k-router internet topology keeps about 40 — without the bound a cache
// of large trees that are never hit again dominates the process's memory.
const treeCacheBytes = 4 << 20

// treeRoot labels a tree's own source in parentLink: reached, by no link.
const treeRoot LinkID = -2

type bfsTree struct {
	src NodeID
	// gen is the graph's route generation the tree was started at; a later
	// FailLink or RestoreLink makes the tree stale.
	gen uint64
	// parentLink[n] is the link used to reach router n from its BFS parent,
	// NoLink while n is unlabelled, treeRoot for the source.
	parentLink []LinkID
	// queue lists the labelled routers in label order; queue[head:] is the
	// frontier still to be expanded.
	queue []NodeID
	head  int

	prev, next *bfsTree // recency ring
}

// NewResolver returns a Resolver over g caching up to cacheSize BFS trees
// (minimum 1; the repository's callers pass 256). On large graphs fewer are
// kept: see treeCacheBytes.
func NewResolver(g *Graph, cacheSize int) *Resolver {
	if cacheSize < 1 {
		cacheSize = 1
	}
	r := &Resolver{g: g, count: cacheSize}
	r.lru.src = NoNode // no query's source: an empty ring never looks like a hit
	return r
}

// Trees reports how many BFS trees the resolver holds cached.
func (r *Resolver) Trees() int { return len(r.cache) }

// HostPath returns a shortest path from host src to host dst:
// [src→router, router hops..., router→dst]. It returns an error if the hosts
// coincide or no path exists.
func (r *Resolver) HostPath(src, dst NodeID) (Path, error) {
	g := r.g
	if src == dst {
		return nil, fmt.Errorf("graph: source and destination host coincide (%d)", src)
	}
	g.checkNode(src)
	g.checkNode(dst)
	if g.nodes[src].Kind != Host || g.nodes[dst].Kind != Host {
		return nil, fmt.Errorf("graph: HostPath endpoints must be hosts (%d, %d)", src, dst)
	}
	up, dstUp := g.AccessLink(src), g.AccessLink(dst)
	srcRouter, dstRouter := g.links[up].To, g.links[dstUp].To
	if g.links[up].Failed {
		return nil, fmt.Errorf("graph: access link of host %d is down", src)
	}
	down := g.links[dstUp].Reverse
	if down == NoLink {
		return nil, fmt.Errorf("graph: host %d has no router→host link", dst)
	}
	if g.links[down].Failed {
		return nil, fmt.Errorf("graph: access link of host %d is down", dst)
	}

	if srcRouter == dstRouter {
		return Path{up, down}, nil
	}
	path, err := r.route(srcRouter, dstRouter, 1)
	if err != nil {
		return nil, err
	}
	path[0], path[len(path)-1] = up, down
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
	g.checkNode(src)
	g.checkNode(dst)
	if g.nodes[src].Kind != Router || g.nodes[dst].Kind != Router {
		return nil, fmt.Errorf("graph: RouterPath endpoints must be routers (%d, %d)", src, dst)
	}
	if src == dst {
		return Path{}, nil
	}
	t := r.tree(src)
	r.advance(t, dst)
	parent := t.parentLink
	if parent[dst] == NoLink {
		return nil, fmt.Errorf("graph: no path from router %d to router %d", src, dst)
	}
	// Walk back from dst to src: once to size the path, once to fill it.
	hops := 0
	for n := dst; n != src; n = g.links[parent[n]].From {
		hops++
	}
	path := make(Path, hops+2*pad)
	i := pad + hops
	for n := dst; n != src; n = g.links[parent[n]].From {
		i--
		path[i] = parent[n]
	}
	return path, nil
}

// tree returns the cached tree rooted at router src — complete, partial or
// freshly rooted — and marks it most recently used. A tree started before a
// link failed or came back restarts here, lazily: only sources actually
// re-resolved after a reconfiguration pay for it.
func (r *Resolver) tree(src NodeID) *bfsTree {
	r.syncAdjacency()
	t := r.lru.next
	if t.src != src {
		var cached bool
		if t, cached = r.cache[src]; cached {
			t.unlink()
		} else {
			if len(r.cache) < r.limit {
				t = &bfsTree{parentLink: make([]LinkID, r.adjNodes)}
				for i := range t.parentLink {
					t.parentLink[i] = NoLink
				}
			} else {
				// Recycle the least recently used tree and its arrays.
				t = r.lru.prev
				t.unlink()
				delete(r.cache, t.src)
				t.clear()
			}
			t.root(src, r.g.routeGen)
			r.cache[src] = t
		}
		t.prev, t.next = &r.lru, r.lru.next
		t.prev.next, t.next.prev = t, t
	}
	if t.gen != r.g.routeGen {
		t.clear()
		t.root(src, r.g.routeGen)
	}
	return t
}

func (t *bfsTree) unlink() {
	t.prev.next, t.next.prev = t.next, t.prev
}

// clear unlabels every router the tree reached, at the cost of what its
// search labelled rather than of the graph's size.
func (t *bfsTree) clear() {
	for _, n := range t.queue {
		t.parentLink[n] = NoLink
	}
	t.queue, t.head = t.queue[:0], 0
}

// root starts a cleared tree at src: the source is labelled and is the
// whole frontier.
func (t *bfsTree) root(src NodeID, gen uint64) {
	t.src, t.gen = src, gen
	t.parentLink[src] = treeRoot
	t.queue = append(t.queue, src)
}

// advance expands t's frontier, in BFS order, until dst is labelled or the
// frontier is exhausted. Failed links are looked at only while the graph
// has any.
func (r *Resolver) advance(t *bfsTree, dst NodeID) {
	links, anyFailed := r.g.links, r.g.failed > 0
	parent, queue, head := t.parentLink, t.queue, t.head
	for head < len(queue) && parent[dst] == NoLink {
		n := queue[head]
		head++
		for _, h := range r.hops[r.off[n]:r.off[n+1]] {
			if parent[h.to] != NoLink || (anyFailed && links[h.link].Failed) {
				continue
			}
			parent[h.to] = h.link
			queue = append(queue, h.to)
		}
	}
	t.queue, t.head = queue, head
}

// syncAdjacency rebuilds the packed adjacency if the graph has grown since
// it was built. Node and link structure is append-only, so the two counts
// say so exactly (and a new resolver's are zero, which no graph with a node
// to query has). Growth can shorten any route and changes the length of
// every tree's parentLink, so the cached trees are dropped with it.
func (r *Resolver) syncAdjacency() {
	g := r.g
	if len(g.nodes) == r.adjNodes && len(g.links) == r.adjLinks {
		return
	}
	r.adjNodes, r.adjLinks = len(g.nodes), len(g.links)
	r.off = make([]int32, r.adjNodes+1)
	r.hops = make([]hop, 0, r.adjLinks)
	for n := range g.nodes {
		r.off[n] = int32(len(r.hops))
		if g.nodes[n].Kind != Router {
			continue
		}
		for _, l := range g.out[n] {
			if to := g.links[l].To; g.nodes[to].Kind == Router {
				r.hops = append(r.hops, hop{to: to, link: l})
			}
		}
	}
	r.off[r.adjNodes] = int32(len(r.hops))

	r.limit = min(r.count, max(1, treeCacheBytes/(8*max(1, r.adjNodes))))
	r.cache = make(map[NodeID]*bfsTree, r.limit)
	r.lru.prev, r.lru.next = &r.lru, &r.lru
}

// PathNodes expands a path into its node sequence (source of the first link
// followed by the destination of every link). Useful for debugging and
// tests.
func PathNodes(g *Graph, p Path) []NodeID {
	if len(p) == 0 {
		return nil
	}
	out := make([]NodeID, 0, len(p)+1)
	out = append(out, g.Link(p[0]).From)
	for _, l := range p {
		out = append(out, g.Link(l).To)
	}
	return out
}

// ValidatePath checks that p is a connected host-to-host path in g whose
// links are all up and all have a reverse (the paper's duplex model; only
// ConnectAsym builds a link without one). Both transports resolve a
// session's way back from the reverse links when the session joins, so a
// path that passes here can carry every packet of the protocol.
func ValidatePath(g *Graph, p Path) error {
	if len(p) < 2 {
		return fmt.Errorf("graph: path too short (%d links)", len(p))
	}
	for _, l := range p {
		g.checkLink(l)
		if g.links[l].Failed {
			return fmt.Errorf("graph: path crosses failed link %d", l)
		}
		if g.links[l].Reverse == NoLink {
			// A session's upstream packets (Response, Update, Bottleneck)
			// retrace its path over the reverse links.
			return fmt.Errorf("graph: path crosses link %d, which has no reverse", l)
		}
	}
	for i := 1; i < len(p); i++ {
		prev, cur := &g.links[p[i-1]], &g.links[p[i]]
		if prev.To != cur.From {
			return fmt.Errorf("graph: path disconnected at hop %d (link %d→ link %d)", i, prev.ID, cur.ID)
		}
		if g.nodes[cur.From].Kind != Router {
			return fmt.Errorf("graph: interior path node %d is not a router", cur.From)
		}
	}
	if g.nodes[g.links[p[0]].From].Kind != Host {
		return fmt.Errorf("graph: path does not start at a host")
	}
	if g.nodes[g.links[p[len(p)-1]].To].Kind != Host {
		return fmt.Errorf("graph: path does not end at a host")
	}
	return nil
}
