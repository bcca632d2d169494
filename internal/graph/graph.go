// Package graph models the network of the B-Neck paper: a simple directed
// graph of routers and hosts connected by links with individual capacities
// and propagation delays (Section II of the paper). Connected nodes always
// have links in both directions. Hosts attach to exactly one router and never
// forward traffic.
package graph

import (
	"fmt"
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
	nodes  []Node
	links  []Link
	out    [][]LinkID // outgoing link IDs per node, in insertion order
	failed int        // links currently failed
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{}
}

// AddRouter adds a router node and returns its ID.
func (g *Graph) AddRouter(name string) NodeID { return g.addNode(Router, name) }

// AddHost adds a host node and returns its ID.
func (g *Graph) AddHost(name string) NodeID { return g.addNode(Host, name) }

func (g *Graph) addNode(kind Kind, name string) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Kind: kind, Name: name})
	g.out = append(g.out, nil)
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
	ab := g.addLink(a, b, capacity, propagation)
	ba := g.addLink(b, a, capacity, propagation)
	g.links[ab].Reverse = ba
	g.links[ba].Reverse = ab
	return ab, ba
}

// ConnectAsym adds a single directed link (for tests building hand-crafted
// scenarios). The paper's model is duplex; prefer Connect. The reverse link
// is set to NoLink.
func (g *Graph) ConnectAsym(a, b NodeID, capacity rate.Rate, propagation time.Duration) LinkID {
	if a == b {
		panic(fmt.Sprintf("graph: self loop on node %d", a))
	}
	g.checkNode(a)
	g.checkNode(b)
	id := g.addLink(a, b, capacity, propagation)
	g.links[id].Reverse = NoLink
	return id
}

func (g *Graph) addLink(from, to NodeID, capacity rate.Rate, propagation time.Duration) LinkID {
	id := LinkID(len(g.links))
	g.links = append(g.links, Link{
		ID: id, From: from, To: to,
		Capacity: capacity, Propagation: propagation,
	})
	g.out[from] = append(g.out[from], id)
	return id
}

func (g *Graph) checkNode(n NodeID) {
	if n < 0 || int(n) >= len(g.nodes) {
		panic(fmt.Sprintf("graph: unknown node %d", n))
	}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks returns the number of directed links.
func (g *Graph) NumLinks() int { return len(g.links) }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) Node { g.checkNode(id); return g.nodes[id] }

// Link returns the link with the given ID.
func (g *Graph) Link(id LinkID) Link {
	if id < 0 || int(id) >= len(g.links) {
		panic(fmt.Sprintf("graph: unknown link %d", id))
	}
	return g.links[id]
}

// LinkReverse returns the ID of the link in the opposite direction (NoLink
// for asymmetric links). Unlike Link it reads only the immutable Reverse
// field — no struct copy on the per-packet path — and is safe to call
// concurrently with capacity or failure mutations; the live runtime's
// lock-striped Emit path depends on that.
func (g *Graph) LinkReverse(id LinkID) LinkID {
	g.checkLink(id)
	return g.links[id].Reverse
}

// LinkTo returns a directed link's destination node. Like LinkReverse it
// reads one immutable field, for the per-packet paths that would otherwise
// copy the whole Link struct.
func (g *Graph) LinkTo(id LinkID) NodeID {
	g.checkLink(id)
	return g.links[id].To
}

// LinkFrom returns a directed link's source node (immutable field read).
func (g *Graph) LinkFrom(id LinkID) NodeID {
	g.checkLink(id)
	return g.links[id].From
}

// Out returns the outgoing links of a node. The returned slice must not be
// modified.
func (g *Graph) Out(id NodeID) []LinkID { g.checkNode(id); return g.out[id] }

func (g *Graph) checkLink(id LinkID) {
	if id < 0 || int(id) >= len(g.links) {
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
	g.links[id].Capacity = capacity
}

// FailLink marks one directed link as down. Failing an already-failed link is
// a no-op. Path resolution routes around failed links; restoring brings the
// link back with its retained capacity and delay.
func (g *Graph) FailLink(id LinkID) {
	g.checkLink(id)
	if g.links[id].Failed {
		return
	}
	g.links[id].Failed = true
	g.failed++
}

// RestoreLink brings a failed directed link back up. Restoring an up link is
// a no-op.
func (g *Graph) RestoreLink(id LinkID) {
	g.checkLink(id)
	if !g.links[id].Failed {
		return
	}
	g.links[id].Failed = false
	g.failed--
}

// LinkUp reports whether a directed link is currently up.
func (g *Graph) LinkUp(id LinkID) bool { g.checkLink(id); return g.failed == 0 || !g.links[id].Failed }

// Routers returns the IDs of all router nodes, in insertion order.
func (g *Graph) Routers() []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Kind == Router {
			out = append(out, n.ID)
		}
	}
	return out
}

// Hosts returns the IDs of all host nodes, in insertion order.
func (g *Graph) Hosts() []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Kind == Host {
			out = append(out, n.ID)
		}
	}
	return out
}

// HostRouter returns the router a host is attached to. It panics if id is
// not a host or the host is unattached.
func (g *Graph) HostRouter(id NodeID) NodeID {
	g.checkNode(id)
	if g.nodes[id].Kind != Host {
		panic(fmt.Sprintf("graph: node %d is not a host", id))
	}
	for _, l := range g.out[id] {
		return g.links[l].To
	}
	panic(fmt.Sprintf("graph: host %d is unattached", id))
}

// AccessLink returns the host→router link of a host.
func (g *Graph) AccessLink(id NodeID) LinkID {
	g.checkNode(id)
	if g.nodes[id].Kind != Host {
		panic(fmt.Sprintf("graph: node %d is not a host", id))
	}
	for _, l := range g.out[id] {
		return l
	}
	panic(fmt.Sprintf("graph: host %d is unattached", id))
}

// Validate checks structural invariants: hosts have exactly one neighbor
// (their router), every link has positive capacity, and duplex symmetry
// holds. It returns a descriptive error for the first violation found.
func (g *Graph) Validate() error {
	for _, n := range g.nodes {
		if n.Kind == Host && len(g.out[n.ID]) != 1 {
			return fmt.Errorf("host %d (%s) has %d links, want 1", n.ID, n.Name, len(g.out[n.ID]))
		}
	}
	for _, l := range g.links {
		if l.Capacity.Sign() <= 0 && !l.Capacity.IsInf() {
			return fmt.Errorf("link %d has non-positive capacity %v", l.ID, l.Capacity)
		}
		if l.Reverse != NoLink {
			r := g.links[l.Reverse]
			if r.From != l.To || r.To != l.From {
				return fmt.Errorf("link %d reverse mismatch", l.ID)
			}
		}
	}
	return nil
}
