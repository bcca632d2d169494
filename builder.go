package bneck

import (
	"fmt"
	"time"

	"bneck/internal/control"
	"bneck/internal/graph"
	"bneck/internal/topology"
)

// Node is a router or host handle returned by NetworkBuilder.
type Node struct {
	id graph.NodeID
}

// NetworkBuilder assembles a hand-built topology. All links are duplex with
// symmetric capacity and propagation delay, per the paper's model.
type NetworkBuilder struct {
	g     *graph.Graph
	links []*Link
	err   error
}

// NewNetwork returns an empty builder.
func NewNetwork() *NetworkBuilder {
	return &NetworkBuilder{g: graph.New()}
}

// Router adds a router.
func (b *NetworkBuilder) Router(name string) Node {
	return Node{id: b.g.AddRouter(name)}
}

// Host adds a host. Hosts terminate sessions and must be connected to
// exactly one router.
func (b *NetworkBuilder) Host(name string) Node {
	return Node{id: b.g.AddHost(name)}
}

// Link connects two nodes with a duplex link and returns a handle that can
// schedule topology events (capacity changes, failures, restorations) once
// the network is built.
func (b *NetworkBuilder) Link(x, y Node, capacity Rate, propagation time.Duration) *Link {
	l := &Link{}
	unknown := x.id // the node to name if the graph lacks one: x first, as Connect checks
	if b.g.Has(unknown) {
		unknown = y.id
	}
	switch {
	case b.err != nil: // the first error sticks
	case x == y:
		b.err = fmt.Errorf("bneck: graph: self loop on node %d", x.id)
	case !b.g.Has(unknown):
		b.err = fmt.Errorf("bneck: graph: unknown node %d", unknown)
	default:
		l.ab, l.ba = b.g.Connect(x.id, y.id, capacity, propagation)
		b.links = append(b.links, l)
	}
	return l
}

// Build validates the topology and returns a Simulation with default
// options. Link handles created by this builder are bound to the returned
// Simulation (the latest Build wins if called repeatedly).
func (b *NetworkBuilder) Build(opts ...Option) (*Simulation, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.g.Validate(); err != nil {
		return nil, fmt.Errorf("bneck: invalid topology: %w", err)
	}
	sim, err := newSimulation(b.g, nil, opts...)
	if err != nil {
		return nil, err
	}
	for _, l := range b.links {
		l.sim = sim
	}
	return sim, nil
}

// Size selects one of the three evaluation scales: the paper's transit-stub
// size for NewTransitStub, the internet rung of that scale for NewInternet.
type Size int

const (
	// Small is the paper's 110-router topology.
	Small Size = iota + 1
	// Medium is the paper's 1,100-router topology.
	Medium
	// Big is the paper's 11,000-router topology.
	Big
)

// Scenario selects the propagation model for NewTransitStub.
type Scenario int

const (
	// LAN fixes all propagation delays at 1 µs.
	LAN Scenario = iota + 1
	// WAN draws router-link delays uniformly from 1–10 ms.
	WAN
)

// NewTransitStub generates one of the paper's transit-stub topologies. Add
// hosts with Simulation.AddHosts before creating sessions.
func NewTransitStub(size Size, scen Scenario, seed int64, opts ...Option) (*Simulation, error) {
	scale, err := size.scale()
	if err != nil {
		return nil, err
	}
	if scen < LAN || scen > WAN {
		return nil, fmt.Errorf("bneck: unknown scenario %d", scen)
	}
	topo, err := topology.Generate(scale.Stub, topology.Scenarios[scen-1], seed)
	if err != nil {
		return nil, err
	}
	return newSimulation(topo.Graph, topo, opts...)
}

// NewInternet generates a hierarchical internet-scale topology: regional
// core meshes joined by geography-derived long-haul links, metro
// aggregation rings under each core, and a power-law fringe of edge routers
// hosts attach to. The three sizes are the topology ladder's rungs — Small
// ≈ 40 routers (paper scale), Medium ≈ 1k (metro scale), Big ≈ 10k (the
// internet rung). Add hosts with Simulation.AddHosts before creating
// sessions.
func NewInternet(size Size, seed int64, opts ...Option) (*Simulation, error) {
	scale, err := size.scale()
	if err != nil {
		return nil, err
	}
	topo, err := topology.GenerateInternet(scale.Internet, seed)
	if err != nil {
		return nil, err
	}
	return newSimulation(topo.Graph, topo, opts...)
}

// scale returns the size's row of the topology name table.
func (s Size) scale() (topology.Scale, error) {
	if s < Small || s > Big {
		return topology.Scale{}, fmt.Errorf("bneck: unknown size %d", s)
	}
	return topology.Scales[s-1], nil
}

// Option customizes a Simulation.
type Option func(*options)

type options struct {
	onRate     func(SessionID, Rate, time.Duration)
	pathPolicy control.Policy
}

// PathPolicy selects how a Simulation treats session paths after topology
// events. See WithPathPolicy.
type PathPolicy int

const (
	// Pinned is the default and the paper's model: a session's path is
	// fixed at join time and moves only when a link failure forces a
	// migration. After a failure → restore cycle, sessions stay on their
	// detour paths.
	Pinned PathPolicy = iota
	// ReoptimizeOnRestore re-runs shortest-path over the active sessions
	// whenever a link restore or a doubling of a link's capacity signals
	// that shorter paths may exist, and migrates every session whose best
	// path is strictly shorter than its current one — through the
	// protocol's own Leave → reroute → Join, a fresh session ID per move,
	// exactly like a failure-driven migration. It has no tuning knobs.
	ReoptimizeOnRestore
)

// WithPathPolicy selects the path re-optimization policy. The default,
// Pinned, reproduces the paper's pin-at-join behavior exactly. With
// ReoptimizeOnRestore the simulation migrates sessions back onto shorter
// paths after restores and capacity doublings. Policy sweeps run in
// session-creation order, so results stay deterministic.
func WithPathPolicy(p PathPolicy) Option {
	// The two enumerations share their values; any other p never sweeps.
	return func(o *options) { o.pathPolicy = control.Policy(p) }
}

// WithRateCallback observes every API.Rate upcall: the session, the granted
// rate, and the virtual time.
func WithRateCallback(fn func(s SessionID, r Rate, at time.Duration)) Option {
	return func(o *options) { o.onRate = fn }
}

// WithShards is kept for source compatibility and does nothing: the
// simulator has one serial engine, and a run's results never depended on the
// shard count.
//
// Deprecated: remove the option; every Simulation runs on the serial engine.
func WithShards(n int) Option {
	return func(*options) {}
}
