// Package topology generates the transit-stub networks of the paper's
// evaluation (Section IV): gt-itm-style Internet topologies at three sizes
// (Small 110, Medium 1,100, Big 11,000 routers), with the paper's capacity
// tiers (100 Mbps host links, 200 Mbps stub links, 500 Mbps transit-router
// links) and LAN (1 µs everywhere) or WAN (1–10 ms router links) propagation
// models. Generation is fully deterministic given a seed. The names of the
// sizes, internet rungs and scenarios are parsed here and nowhere else.
package topology

import (
	"fmt"
	"math/rand"
	"time"

	"bneck/internal/graph"
	"bneck/internal/rate"
)

// Scenario selects the propagation-delay model.
type Scenario int

const (
	// LAN fixes every propagation delay at 1 µs.
	LAN Scenario = iota + 1
	// WAN draws router-link delays uniformly from 1–10 ms; host links stay
	// at 1 µs.
	WAN
)

func (s Scenario) String() string {
	if s == LAN {
		return "LAN"
	}
	return "WAN"
}

// Params sizes a transit-stub topology. Stub domains are distributed
// round-robin over transit routers.
type Params struct {
	Name             string
	TransitDomains   int
	TransitPerDomain int
	StubDomains      int // total, spread over all transit routers
	RoutersPerStub   int
}

// Routers returns the total router count the parameters produce.
func (p Params) Routers() int {
	return p.TransitDomains*p.TransitPerDomain + p.StubDomains*p.RoutersPerStub
}

// The paper's three topology sizes.
var (
	// Small is the paper's 110-router network.
	Small = Params{Name: "Small", TransitDomains: 1, TransitPerDomain: 10, StubDomains: 10, RoutersPerStub: 10}
	// Medium is the paper's 1,100-router network.
	Medium = Params{Name: "Medium", TransitDomains: 10, TransitPerDomain: 10, StubDomains: 100, RoutersPerStub: 10}
	// Big is the paper's 11,000-router network.
	Big = Params{Name: "Big", TransitDomains: 10, TransitPerDomain: 10, StubDomains: 1090, RoutersPerStub: 10}
)

// The paper's capacity tiers.
var (
	HostLinkCapacity    = rate.Mbps(100)
	StubLinkCapacity    = rate.Mbps(200)
	TransitLinkCapacity = rate.Mbps(500)
)

// Network is a generated topology plus the bookkeeping needed to attach
// hosts and resolve session paths.
type Network struct {
	Graph          *graph.Graph
	Params         Params
	Scenario       Scenario
	TransitRouters []graph.NodeID
	StubRouters    []graph.NodeID
	Hosts          []graph.NodeID

	rng *rand.Rand
}

// Generate builds a transit-stub topology deterministically from the seed.
func Generate(p Params, scen Scenario, seed int64) (*Network, error) {
	if p.TransitDomains < 1 || p.TransitPerDomain < 1 || p.StubDomains < 0 || p.RoutersPerStub < 1 {
		return nil, fmt.Errorf("topology: invalid params %+v", p)
	}
	rng := rand.New(rand.NewSource(seed))
	n := &Network{
		Graph:    graph.New(),
		Params:   p,
		Scenario: scen,
		rng:      rng,
	}
	g := n.Graph

	routerDelay := func() time.Duration {
		if scen == LAN {
			return time.Microsecond
		}
		// WAN: uniform in [1ms, 10ms].
		return time.Millisecond + time.Duration(rng.Int63n(int64(9*time.Millisecond)))
	}

	// Transit domains: each a ring of TransitPerDomain routers plus one
	// random chord per router (for TransitPerDomain >= 4), the classic
	// gt-itm flavor of a well-connected core.
	domains := make([][]graph.NodeID, p.TransitDomains)
	for d := range domains {
		domains[d] = make([]graph.NodeID, p.TransitPerDomain)
		for i := range domains[d] {
			id := g.AddRouter(fmt.Sprintf("t%d.%d", d, i))
			domains[d][i] = id
			n.TransitRouters = append(n.TransitRouters, id)
		}
		m := p.TransitPerDomain
		if m > 1 {
			for i := 0; i < m; i++ {
				g.Connect(domains[d][i], domains[d][(i+1)%m], TransitLinkCapacity, routerDelay())
			}
		}
		if m >= 4 {
			for i := 0; i < m; i++ {
				j := (i + 2 + rng.Intn(m-3)) % m
				if !connected(g, domains[d][i], domains[d][j]) {
					g.Connect(domains[d][i], domains[d][j], TransitLinkCapacity, routerDelay())
				}
			}
		}
	}
	// Inter-domain ring through random representatives, plus one random
	// extra inter-domain link per domain for path diversity.
	if p.TransitDomains > 1 {
		for d := 0; d < p.TransitDomains; d++ {
			next := (d + 1) % p.TransitDomains
			a := domains[d][rng.Intn(p.TransitPerDomain)]
			b := domains[next][rng.Intn(p.TransitPerDomain)]
			if !connected(g, a, b) {
				g.Connect(a, b, TransitLinkCapacity, routerDelay())
			}
		}
		for d := 0; d < p.TransitDomains; d++ {
			other := rng.Intn(p.TransitDomains)
			if other == d {
				continue
			}
			a := domains[d][rng.Intn(p.TransitPerDomain)]
			b := domains[other][rng.Intn(p.TransitPerDomain)]
			if !connected(g, a, b) {
				g.Connect(a, b, TransitLinkCapacity, routerDelay())
			}
		}
	}

	// Stub domains: rings (lines for tiny sizes) of stub routers; router 0
	// uplinks to its transit router. Stub domains are spread round-robin
	// over all transit routers.
	transitCount := len(n.TransitRouters)
	for sd := 0; sd < p.StubDomains; sd++ {
		attach := n.TransitRouters[sd%transitCount]
		stub := make([]graph.NodeID, p.RoutersPerStub)
		for i := range stub {
			id := g.AddRouter(fmt.Sprintf("s%d.%d", sd, i))
			stub[i] = id
			n.StubRouters = append(n.StubRouters, id)
		}
		m := p.RoutersPerStub
		switch {
		case m == 2:
			g.Connect(stub[0], stub[1], StubLinkCapacity, routerDelay())
		case m > 2:
			for i := 0; i < m; i++ {
				g.Connect(stub[i], stub[(i+1)%m], StubLinkCapacity, routerDelay())
			}
		}
		// Transit routers' links run at the transit tier.
		g.Connect(stub[0], attach, TransitLinkCapacity, routerDelay())
	}

	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("topology: generated graph invalid: %w", err)
	}
	return n, nil
}

func connected(g *graph.Graph, a, b graph.NodeID) bool {
	for l := range g.Out(a) {
		if g.Link(l).To == b {
			return true
		}
	}
	return false
}

// AddHosts attaches count hosts to stub routers chosen uniformly at random
// (the paper attaches hosts to stub routers only) and returns their IDs.
func (n *Network) AddHosts(count int) []graph.NodeID {
	delay := time.Microsecond // host links are 1 µs in both scenarios
	out := make([]graph.NodeID, count)
	for i := range out {
		r := n.StubRouters[n.rng.Intn(len(n.StubRouters))]
		h := n.Graph.AddHost(fmt.Sprintf("h%d", len(n.Hosts)))
		n.Graph.Connect(h, r, HostLinkCapacity, delay)
		n.Hosts = append(n.Hosts, h)
		out[i] = h
	}
	return out
}

// RandomHostPair draws a distinct source/destination host pair uniformly at
// random, the paper's session placement policy.
func (n *Network) RandomHostPair() (src, dst graph.NodeID) {
	if len(n.Hosts) < 2 {
		panic("topology: need at least two hosts")
	}
	src = n.Hosts[n.rng.Intn(len(n.Hosts))]
	for {
		dst = n.Hosts[n.rng.Intn(len(n.Hosts))]
		if dst != src {
			return src, dst
		}
	}
}

// Rand exposes the network's deterministic RNG so callers stay on a single
// seed stream.
func (n *Network) Rand() *rand.Rand { return n.rng }

// Topology returns the underlying graph.
func (n *Network) Topology() *graph.Graph { return n.Graph }

// Hosted is the surface shared by every generated topology — transit-stub
// (*Network) and internet-scale (*Internet) alike: a graph, deterministic
// host attachment, and a single seeded RNG stream for session placement.
// Experiment drivers and the public builder accept any Hosted.
type Hosted interface {
	Topology() *graph.Graph
	AddHosts(count int) []graph.NodeID
	RandomHostPair() (src, dst graph.NodeID)
	Rand() *rand.Rand
}
