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
	if b.err != nil {
		return l
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				b.err = fmt.Errorf("bneck: %v", r)
			}
		}()
		l.ab, l.ba = b.g.Connect(x.id, y.id, capacity, propagation)
		b.links = append(b.links, l)
	}()
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

// Size selects one of the paper's topology scales for NewTransitStub.
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
	var params topology.Params
	switch size {
	case Small:
		params = topology.Small
	case Medium:
		params = topology.Medium
	case Big:
		params = topology.Big
	default:
		return nil, fmt.Errorf("bneck: unknown size %d", size)
	}
	var tScen topology.Scenario
	switch scen {
	case LAN:
		tScen = topology.LAN
	case WAN:
		tScen = topology.WAN
	default:
		return nil, fmt.Errorf("bneck: unknown scenario %d", scen)
	}
	topo, err := topology.Generate(params, tScen, seed)
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
	var params topology.InternetParams
	switch size {
	case Small:
		params = topology.InternetPaper
	case Medium:
		params = topology.InternetMetro
	case Big:
		params = topology.InternetGlobal
	default:
		return nil, fmt.Errorf("bneck: unknown size %d", size)
	}
	topo, err := topology.GenerateInternet(params, seed)
	if err != nil {
		return nil, err
	}
	return newSimulation(topo.Graph, topo, opts...)
}

// Option customizes a Simulation.
type Option func(*options)

type options struct {
	controlPacketBits int64
	binSize           time.Duration
	onRate            func(SessionID, Rate, time.Duration)
	pathPolicy        control.Policy
}

func defaultOptions() options {
	return options{controlPacketBits: 512, binSize: 5 * time.Millisecond}
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
	// whenever a link restore signals that shorter paths may exist, and
	// migrates any session whose current path exceeds the configured
	// stretch/hysteresis margin — through the protocol's own Leave →
	// reroute → Join, a fresh session ID per move, exactly like a
	// failure-driven migration. Doubling a link's capacity sweeps too, and
	// a session whose best path crosses it moves on any strict improvement.
	ReoptimizeOnRestore
)

// WithPathPolicy selects the path re-optimization policy. The default,
// Pinned, reproduces the paper's pin-at-join behavior exactly. With
// ReoptimizeOnRestore the simulation migrates sessions back onto shorter
// paths after restores; tune the hysteresis with WithReoptimizeStretch and
// WithReoptimizeMinGain. Policy sweeps run in session-creation order, so
// results stay deterministic.
func WithPathPolicy(p PathPolicy) Option {
	// The two enumerations share their values; any other p never sweeps.
	return func(o *options) { o.pathPolicy.Kind = control.PolicyKind(p) }
}

// WithReoptimizeStretch sets the multiplicative hysteresis of
// ReoptimizeOnRestore: a session migrates only when its current path is
// longer than stretch × its best path. Values ≤ 1 (the default) migrate on
// any strictly shorter path.
func WithReoptimizeStretch(stretch float64) Option {
	return func(o *options) { o.pathPolicy.Stretch = stretch }
}

// WithReoptimizeMinGain sets the additive hysteresis of
// ReoptimizeOnRestore: a session migrates only when the move saves at least
// hops links. Values ≤ 1 (the default) migrate on any strict improvement.
func WithReoptimizeMinGain(hops int) Option {
	return func(o *options) { o.pathPolicy.MinGain = hops }
}

// WithControlPacketBits sets the control packet size used for per-link
// transmission (serialization) delay; 0 models ideal links.
func WithControlPacketBits(bits int64) Option {
	return func(o *options) { o.controlPacketBits = bits }
}

// WithTrafficBinSize sets the packet-count aggregation interval of
// Simulation.TrafficBins.
func WithTrafficBinSize(d time.Duration) Option {
	return func(o *options) { o.binSize = d }
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
