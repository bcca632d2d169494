package scenario

import (
	"fmt"
	"time"

	"bneck/internal/graph"
	"bneck/internal/topology"
)

// world is a script instantiated onto a concrete graph: resolved node names,
// session endpoints, per-event duplex link IDs, and the timeline grouped
// into epochs. Each run builds a fresh world, because runs mutate the graph.
type world struct {
	sc     *Script
	g      *graph.Graph
	nodes  map[string]graph.NodeID
	epochs []epoch
}

// An epoch is the events sharing a time, or one after block (block > 0),
// which starts after the previous epoch quiesced.
type epoch struct {
	at     time.Duration
	block  int
	after  time.Duration
	events []resolvedEvent
}

type resolvedEvent struct {
	Event
	// sessionIdx indexes Script.Sessions for session ops (and expect-rate
	// assertions naming a session).
	sessionIdx int
	// ab/ba are the duplex pair for topology ops; a selector's are set when
	// its epoch starts.
	ab, ba graph.LinkID
	// host is the asserted host for expect-rate events naming a host.
	host graph.NodeID
}

// build instantiates the script's topology and resolves every name.
func build(sc *Script) (*world, error) {
	w := &world{sc: sc, nodes: make(map[string]graph.NodeID)}
	switch sc.Topo.Kind {
	case TopoHand:
		g := graph.New()
		for _, r := range sc.Routers {
			w.nodes[r.Name] = g.AddRouter(r.Name)
		}
		for _, l := range sc.Links {
			g.Connect(w.nodes[l.A], w.nodes[l.B], l.Capacity, l.Delay)
		}
		for _, h := range sc.Hosts {
			id := g.AddHost(h.Name)
			g.Connect(id, w.nodes[h.Router], h.Capacity, h.Delay)
			w.nodes[h.Name] = id
		}
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("scenario: invalid topology: %w", err)
		}
		w.g = g
	case TopoTransitStub, TopoInternet:
		var (
			topo topology.Hosted
			err  error
		)
		if sc.Topo.Kind == TopoTransitStub {
			topo, err = topology.Generate(sc.Topo.Size, sc.Topo.Scen, sc.Topo.Seed)
		} else {
			topo, err = topology.GenerateInternet(sc.Topo.Inet, sc.Topo.Seed)
		}
		if err != nil {
			return nil, err
		}
		topo.AddHosts(sc.Topo.Hosts)
		w.g = topo.Topology()
		for i := 0; i < w.g.NumNodes(); i++ {
			n := w.g.Node(graph.NodeID(i))
			w.nodes[n.Name] = n.ID
		}
	default:
		return nil, fmt.Errorf("scenario: no topology")
	}

	sessionIdx := make(map[string]int, len(sc.Sessions))
	for i, s := range sc.Sessions {
		for _, h := range []string{s.Src, s.Dst} {
			id, ok := w.nodes[h]
			if !ok {
				return nil, fmt.Errorf("scenario: line %d: unknown host %q", s.Line, h)
			}
			if w.g.Node(id).Kind != graph.Host {
				return nil, fmt.Errorf("scenario: line %d: node %q is not a host", s.Line, h)
			}
		}
		sessionIdx[s.Name] = i
	}

	// Resolve and group the timeline.
	for _, ev := range sc.Events {
		rev := resolvedEvent{Event: ev, sessionIdx: -1, ab: graph.NoLink, ba: graph.NoLink, host: graph.NoNode}
		switch ev.Op {
		case OpJoin, OpLeave, OpChange:
			rev.sessionIdx = sessionIdx[ev.Session]
		case OpExpectMigrated, OpExpectStranded, OpExpectReoptimized:
			// Nothing to resolve: the assertion reads runtime counters.
		case OpExpectRate:
			if i, ok := sessionIdx[ev.Session]; ok {
				rev.sessionIdx = i
				break
			}
			id, ok := w.nodes[ev.Session]
			if !ok || w.g.Node(id).Kind != graph.Host {
				return nil, fmt.Errorf("scenario: line %d: expect rate names unknown session or host %q", ev.Line, ev.Session)
			}
			rev.host = id
		case OpFail, OpRestore, OpSetCapacity:
			if ev.Selected {
				break
			}
			ab, ba, err := w.linkBetween(ev.A, ev.B)
			if err != nil {
				return nil, fmt.Errorf("scenario: line %d: %w", ev.Line, err)
			}
			rev.ab, rev.ba = ab, ba
		}
		if n := len(w.epochs); n > 0 && w.epochs[n-1].block == ev.Block && (ev.Block > 0 || w.epochs[n-1].at == ev.At) {
			w.epochs[n-1].events = append(w.epochs[n-1].events, rev)
		} else {
			w.epochs = append(w.epochs, epoch{at: ev.At, block: ev.Block, after: ev.After, events: []resolvedEvent{rev}})
		}
	}
	return w, nil
}

// linkBetween resolves a duplex link by its endpoint names.
func (w *world) linkBetween(a, b string) (graph.LinkID, graph.LinkID, error) {
	na, ok := w.nodes[a]
	if !ok {
		return graph.NoLink, graph.NoLink, fmt.Errorf("unknown node %q", a)
	}
	nb, ok := w.nodes[b]
	if !ok {
		return graph.NoLink, graph.NoLink, fmt.Errorf("unknown node %q", b)
	}
	for lid := range w.g.Out(na) {
		l := w.g.Link(lid)
		if l.To == nb {
			return l.ID, l.Reverse, nil
		}
	}
	return graph.NoLink, graph.NoLink, fmt.Errorf("no link between %q and %q", a, b)
}
