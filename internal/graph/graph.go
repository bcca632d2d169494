// Package graph models the network of the B-Neck paper: a simple directed
// graph of routers and hosts connected by links with individual capacities
// and propagation delays (Section II of the paper). Connected nodes always
// have links in both directions. Hosts attach to exactly one router and never
// forward traffic.
package graph

import (
	"fmt"
	"iter"
	"time"

	"bneck/internal/rate"
)

// NodeID identifies a node. IDs are dense indexes assigned in insertion
// order.
type NodeID int32

// LinkID identifies a directed link. IDs are dense indexes assigned in
// insertion order.
type LinkID int32

// None is the sentinel for "no node"/"no link".
const (
	NoNode NodeID = -1
	NoLink LinkID = -1
)

// Kind distinguishes routers from hosts.
type Kind int

const (
	// Router nodes forward traffic and run the router-link task.
	Router Kind = iota + 1
	// Host nodes terminate sessions; they are never interior path nodes.
	Host
)

func (k Kind) String() string {
	switch k {
	case Router:
		return "router"
	case Host:
		return "host"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Node is a router or host.
type Node struct {
	ID   NodeID
	Kind Kind
	Name string
}

// Link is a directed link with a dedicated capacity for data traffic and a
// propagation delay. Per the paper's model, control traffic does not consume
// the data capacity; capacity only drives the max-min computation.
type Link struct {
	ID          LinkID
	From, To    NodeID
	Capacity    rate.Rate
	Propagation time.Duration
	// Reverse is the link in the opposite direction (the paper's model
	// guarantees it exists for every link).
	Reverse LinkID
	// Failed marks an administratively-down link: it carries no new sessions
	// and path resolution routes around it. Capacity and propagation are
	// retained for restoration.
	Failed bool
}

// Graph is a network. Build it with AddRouter/AddHost/Connect. Node and link
// structure is append-only, but links support controlled mutation —
// SetCapacity, FailLink, RestoreLink. Min-hop routes (see Resolver) depend
// on which links are up and on growth, which the node and link counts show;
// no capacity can change one.
type Graph struct {
	nodes  pages[node]
	links  pages[link]
	caps   pages[rate.Rate] // link capacities, by link ID
	failed int              // links currently failed
}

// node is a stored Node. Its out-links are threaded through their records:
// first, then each link's next, in insertion order.
type node struct {
	name        string
	kind        Kind
	first, last LinkID
	degree      int32
}

// link is a stored Link without its capacity, which Graph.caps holds: 32
// bytes and no pointers, so the collector never scans the link pages.
type link struct {
	id, reverse LinkID
	from, to    NodeID
	next        LinkID // from's next out-link, NoLink after the last
	failed      bool
	propagation time.Duration
}

const pageBits = 12 // 4096 entries a page

// pages is an append-only store: entry i is at p[i>>pageBits][i&4095]. The
// first page grows by append, so a small graph costs what a slice does;
// every later page is allocated once at full size, so growth never copies or
// re-zeroes what is already stored. Growing the first page moves it, so a
// pointer into it must not be held across an add to the same store.
type pages[T any] struct {
	p [][]T
	n int
}

func (s *pages[T]) at(i int) *T { return &s.p[i>>pageBits][i&(1<<pageBits-1)] }

func (s *pages[T]) add(v T) {
	if s.n == len(s.p)<<pageBits { // a new page: empty if it is the first
		s.p = append(s.p, make([]T, 0, min(s.n, 1)<<pageBits))
	}
	s.p[len(s.p)-1] = append(s.p[len(s.p)-1], v)
	s.n++
}

func (g *Graph) node(id NodeID) *node { return g.nodes.at(int(id)) }
func (g *Graph) link(id LinkID) *link { return g.links.at(int(id)) }

// New returns an empty graph.
func New() *Graph {
	return &Graph{}
}

// AddRouter adds a router node and returns its ID.
func (g *Graph) AddRouter(name string) NodeID { return g.addNode(Router, name) }

// AddHost adds a host node and returns its ID.
func (g *Graph) AddHost(name string) NodeID { return g.addNode(Host, name) }

func (g *Graph) addNode(kind Kind, name string) NodeID {
	id := NodeID(g.nodes.n)
	g.nodes.add(node{name: name, kind: kind, first: NoLink, last: NoLink})
	return id
}

// Connect adds a pair of directed links between a and b, with the given
// capacity and propagation delay in each direction, and returns the two link
// IDs (a→b, b→a). It panics on unknown nodes or self loops; topology
// construction errors are programming errors.
func (g *Graph) Connect(a, b NodeID, capacity rate.Rate, propagation time.Duration) (LinkID, LinkID) {
	if a == b {
		panic(fmt.Sprintf("graph: self loop on node %d", a))
	}
	g.checkNode(a)
	g.checkNode(b)
	ab := LinkID(g.links.n)
	g.addLink(ab, ab+1, a, b, capacity, propagation)
	g.addLink(ab+1, ab, b, a, capacity, propagation)
	return ab, ab + 1
}

func (g *Graph) addLink(id, reverse LinkID, from, to NodeID, capacity rate.Rate, propagation time.Duration) {
	g.links.add(link{id: id, reverse: reverse, from: from, to: to, next: NoLink, propagation: propagation})
	g.caps.add(capacity)
	n := g.node(from)
	if n.last == NoLink {
		n.first = id
	} else {
		g.link(n.last).next = id
	}
	n.last = id
	n.degree++
}

// Has reports whether id names a node of g.
func (g *Graph) Has(id NodeID) bool { return id >= 0 && int(id) < g.nodes.n }

func (g *Graph) checkNode(n NodeID) {
	if !g.Has(n) {
		panic(fmt.Sprintf("graph: unknown node %d", n))
	}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.nodes.n }

// NumLinks returns the number of directed links.
func (g *Graph) NumLinks() int { return g.links.n }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) Node {
	g.checkNode(id)
	n := g.node(id)
	return Node{ID: id, Kind: n.kind, Name: n.name}
}

// Link returns the link with the given ID.
func (g *Graph) Link(id LinkID) Link {
	g.checkLink(id)
	l := g.link(id)
	return Link{ID: id, From: l.from, To: l.to, Capacity: *g.caps.at(int(id)),
		Propagation: l.propagation, Reverse: l.reverse, Failed: l.failed}
}

// Capacity returns a directed link's capacity, without assembling its Link.
func (g *Graph) Capacity(id LinkID) rate.Rate {
	g.checkLink(id)
	return *g.caps.at(int(id))
}

// LinkReverse returns the ID of the link in the opposite direction. Unlike
// Link it reads only the immutable Reverse field — no struct copy on the
// per-packet path — and is safe to call concurrently with capacity or
// failure mutations.
func (g *Graph) LinkReverse(id LinkID) LinkID {
	g.checkLink(id)
	return g.link(id).reverse
}

// LinkTo returns a directed link's destination node. Like LinkReverse it
// reads one immutable field, for the per-packet paths that would otherwise
// copy the whole Link struct.
func (g *Graph) LinkTo(id LinkID) NodeID {
	g.checkLink(id)
	return g.link(id).to
}

// LinkFrom returns a directed link's source node (immutable field read).
func (g *Graph) LinkFrom(id LinkID) NodeID {
	g.checkLink(id)
	return g.link(id).from
}

// Out returns a node's outgoing links in insertion order, read from the list
// threaded through their records: ranging over it allocates nothing, and
// panics on an unknown node.
func (g *Graph) Out(id NodeID) iter.Seq[LinkID] {
	return func(yield func(LinkID) bool) {
		g.checkNode(id)
		for l := g.node(id).first; l != NoLink && yield(l); l = g.link(l).next {
		}
	}
}

func (g *Graph) checkLink(id LinkID) {
	if id < 0 || int(id) >= g.links.n {
		panic(fmt.Sprintf("graph: unknown link %d", id))
	}
}

// SetCapacity changes the capacity of one directed link. It panics on an
// unknown link or a non-positive finite capacity (topology mutation errors
// are programming errors, like construction errors).
func (g *Graph) SetCapacity(id LinkID, capacity rate.Rate) {
	g.checkLink(id)
	if capacity.Sign() <= 0 && !capacity.IsInf() {
		panic(fmt.Sprintf("graph: non-positive capacity %v for link %d", capacity, id))
	}
	*g.caps.at(int(id)) = capacity
}

// FailLink marks one directed link as down. Failing an already-failed link is
// a no-op. Path resolution routes around failed links; restoring brings the
// link back with its retained capacity and delay.
func (g *Graph) FailLink(id LinkID) {
	g.checkLink(id)
	if l := g.link(id); !l.failed {
		l.failed = true
		g.failed++
	}
}

// RestoreLink brings a failed directed link back up. Restoring an up link is
// a no-op.
func (g *Graph) RestoreLink(id LinkID) {
	g.checkLink(id)
	if l := g.link(id); l.failed {
		l.failed = false
		g.failed--
	}
}

// LinkUp reports whether a directed link is currently up.
func (g *Graph) LinkUp(id LinkID) bool { g.checkLink(id); return g.failed == 0 || !g.link(id).failed }

// Routers returns the IDs of all router nodes, in insertion order.
func (g *Graph) Routers() []NodeID {
	var out []NodeID
	for id := range NodeID(g.nodes.n) {
		if g.node(id).kind == Router {
			out = append(out, id)
		}
	}
	return out
}

// HostRouter returns the router a host is attached to. It panics if id is
// not a host or the host is unattached.
func (g *Graph) HostRouter(id NodeID) NodeID { return g.link(g.AccessLink(id)).to }

// AccessLink returns the host→router link of a host.
func (g *Graph) AccessLink(id NodeID) LinkID {
	g.checkNode(id)
	n := g.node(id)
	if n.kind != Host {
		panic(fmt.Sprintf("graph: node %d is not a host", id))
	}
	if n.first == NoLink {
		panic(fmt.Sprintf("graph: host %d is unattached", id))
	}
	return n.first
}

// Validate checks structural invariants: hosts have exactly one neighbor,
// a router; every link has positive capacity and a non-negative propagation
// delay; and duplex symmetry holds. It returns a descriptive error for the
// first violation found.
func (g *Graph) Validate() error {
	for id := range NodeID(g.nodes.n) {
		switch n := g.node(id); {
		case n.kind != Host:
		case n.degree != 1:
			return fmt.Errorf("host %d (%s) has %d links, want 1", id, n.name, n.degree)
		case g.node(g.link(n.first).to).kind != Router:
			return fmt.Errorf("host %d (%s) is linked to host %d, want a router", id, n.name, g.link(n.first).to)
		}
	}
	for id := range LinkID(g.links.n) {
		l := g.link(id)
		if c := *g.caps.at(int(id)); c.Sign() <= 0 && !c.IsInf() {
			return fmt.Errorf("link %d has non-positive capacity %v", id, c)
		}
		if l.propagation < 0 {
			return fmt.Errorf("link %d has negative propagation %v", id, l.propagation)
		}
		if r := g.link(l.reverse); r.from != l.to || r.to != l.from {
			return fmt.Errorf("link %d reverse mismatch", id)
		}
	}
	return nil
}
