package graph

import (
	"testing"
	"time"

	"bneck/internal/rate"
)

// lineTopo builds hostA - r1 - r2 - r3 - hostB with uniform capacities.
func lineTopo(t *testing.T) (*Graph, NodeID, NodeID) {
	t.Helper()
	g := New()
	r1 := g.AddRouter("r1")
	r2 := g.AddRouter("r2")
	r3 := g.AddRouter("r3")
	ha := g.AddHost("ha")
	hb := g.AddHost("hb")
	c := rate.Mbps(100)
	g.Connect(ha, r1, c, time.Microsecond)
	g.Connect(r1, r2, c, time.Microsecond)
	g.Connect(r2, r3, c, time.Microsecond)
	g.Connect(r3, hb, c, time.Microsecond)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g, ha, hb
}

func TestBuildAndAccessors(t *testing.T) {
	g, ha, _ := lineTopo(t)
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if g.NumLinks() != 8 {
		t.Fatalf("NumLinks = %d", g.NumLinks())
	}
	if got := len(g.Routers()); got != 3 {
		t.Fatalf("Routers = %d", got)
	}
	if got := g.NumNodes() - len(g.Routers()); got != 2 {
		t.Fatalf("Hosts = %d", got)
	}
	if g.Node(ha).Kind != Host {
		t.Fatalf("ha is not a host")
	}
	if g.HostRouter(ha) != 0 {
		t.Fatalf("HostRouter(ha) = %d", g.HostRouter(ha))
	}
	up := g.AccessLink(ha)
	if g.Link(up).From != ha {
		t.Fatalf("access link does not start at host")
	}
	// Duplex symmetry.
	rev := g.Link(up).Reverse
	if g.Link(rev).From != g.Link(up).To || g.Link(rev).To != ha {
		t.Fatalf("reverse link wrong")
	}
}

func TestConnectPanics(t *testing.T) {
	g := New()
	a := g.AddRouter("a")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on self loop")
		}
	}()
	g.Connect(a, a, rate.Mbps(1), 0)
}

func TestHostPathLine(t *testing.T) {
	g, ha, hb := lineTopo(t)
	res := NewResolver(g, 4)
	p, err := res.HostPath(ha, hb)
	if err != nil {
		t.Fatalf("HostPath: %v", err)
	}
	if len(p) != 4 {
		t.Fatalf("path length = %d, want 4 (%v)", len(p), p)
	}
	if err := ValidatePath(g, p); err != nil {
		t.Fatalf("ValidatePath: %v", err)
	}
	nodes := PathNodes(g, p)
	if nodes[0] != ha || nodes[len(nodes)-1] != hb {
		t.Fatalf("path endpoints wrong: %v", nodes)
	}
}

func TestHostPathSameRouter(t *testing.T) {
	g := New()
	r := g.AddRouter("r")
	h1 := g.AddHost("h1")
	h2 := g.AddHost("h2")
	g.Connect(h1, r, rate.Mbps(100), 0)
	g.Connect(h2, r, rate.Mbps(100), 0)
	res := NewResolver(g, 4)
	p, err := res.HostPath(h1, h2)
	if err != nil {
		t.Fatalf("HostPath: %v", err)
	}
	if len(p) != 2 {
		t.Fatalf("path length = %d, want 2", len(p))
	}
	if err := ValidatePath(g, p); err != nil {
		t.Fatalf("ValidatePath: %v", err)
	}
}

func TestHostPathErrors(t *testing.T) {
	g, ha, hb := lineTopo(t)
	res := NewResolver(g, 4)
	if _, err := res.HostPath(ha, ha); err == nil {
		t.Errorf("expected error for identical endpoints")
	}
	if _, err := res.HostPath(NodeID(0), hb); err == nil {
		t.Errorf("expected error for router endpoint")
	}
	// Disconnected component.
	island := g.AddRouter("island")
	hIsland := g.AddHost("hIsland")
	g.Connect(hIsland, island, rate.Mbps(10), 0)
	res2 := NewResolver(g, 4)
	if _, err := res2.HostPath(ha, hIsland); err == nil {
		t.Errorf("expected error for disconnected hosts")
	}
}

func TestShortestPathAvoidsHosts(t *testing.T) {
	// Diamond where the "short" route would pass through a host; BFS must
	// take the router route.
	g := New()
	r1 := g.AddRouter("r1")
	r2 := g.AddRouter("r2")
	r3 := g.AddRouter("r3")
	hMid := g.AddHost("hmid")
	ha := g.AddHost("ha")
	hb := g.AddHost("hb")
	c := rate.Mbps(100)
	g.Connect(ha, r1, c, 0)
	g.Connect(hb, r3, c, 0)
	// Host in the middle attached to r1; not a route.
	g.Connect(hMid, r1, c, 0)
	g.Connect(r1, r2, c, 0)
	g.Connect(r2, r3, c, 0)
	res := NewResolver(g, 4)
	p, err := res.HostPath(ha, hb)
	if err != nil {
		t.Fatalf("HostPath: %v", err)
	}
	for _, n := range PathNodes(g, p)[1:len(p)] {
		if g.Node(n).Kind != Router && n != hb {
			t.Fatalf("path crosses host %d", n)
		}
	}
}

func TestShortestPathIsShortest(t *testing.T) {
	// Two routes: 2 hops vs 3 hops.
	g := New()
	r1 := g.AddRouter("r1")
	r2 := g.AddRouter("r2")
	r3 := g.AddRouter("r3")
	r4 := g.AddRouter("r4")
	ha := g.AddHost("ha")
	hb := g.AddHost("hb")
	c := rate.Mbps(100)
	g.Connect(ha, r1, c, 0)
	g.Connect(hb, r4, c, 0)
	g.Connect(r1, r2, c, 0)
	g.Connect(r2, r3, c, 0)
	g.Connect(r3, r4, c, 0)
	g.Connect(r1, r4, c, 0) // direct shortcut
	res := NewResolver(g, 4)
	p, err := res.HostPath(ha, hb)
	if err != nil {
		t.Fatalf("HostPath: %v", err)
	}
	if len(p) != 3 { // access + r1→r4 + access
		t.Fatalf("path length = %d, want 3: %v", len(p), PathNodes(g, p))
	}
}

func TestResolverCacheEviction(t *testing.T) {
	g := New()
	const n = 6
	routers := make([]NodeID, n)
	for i := range routers {
		routers[i] = g.AddRouter("r")
	}
	for i := 1; i < n; i++ {
		g.Connect(routers[i-1], routers[i], rate.Mbps(10), 0)
	}
	res := NewResolver(g, 2)
	// One resolver answers every ordered pair three times over: no query
	// may see what an earlier one left behind.
	for rep := 0; rep < 3; rep++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				p, err := res.RouterPath(routers[i], routers[j])
				if err != nil {
					t.Fatalf("RouterPath(%d,%d): %v", i, j, err)
				}
				want := j - i
				if want < 0 {
					want = -want
				}
				if len(p) != want {
					t.Fatalf("RouterPath(%d,%d) length = %d, want %d", i, j, len(p), want)
				}
			}
		}
	}
}

func TestDeterministicPaths(t *testing.T) {
	build := func() (*Graph, NodeID, NodeID) {
		g := New()
		r1 := g.AddRouter("r1")
		r2a := g.AddRouter("r2a")
		r2b := g.AddRouter("r2b")
		r3 := g.AddRouter("r3")
		ha := g.AddHost("ha")
		hb := g.AddHost("hb")
		c := rate.Mbps(100)
		g.Connect(ha, r1, c, 0)
		g.Connect(hb, r3, c, 0)
		g.Connect(r1, r2a, c, 0)
		g.Connect(r1, r2b, c, 0)
		g.Connect(r2a, r3, c, 0)
		g.Connect(r2b, r3, c, 0)
		return g, ha, hb
	}
	g1, a1, b1 := build()
	g2, a2, b2 := build()
	p1, err1 := NewResolver(g1, 4).HostPath(a1, b1)
	p2, err2 := NewResolver(g2, 4).HostPath(a2, b2)
	if err1 != nil || err2 != nil {
		t.Fatalf("errors: %v %v", err1, err2)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("nondeterministic path: %v vs %v", p1, p2)
		}
	}
}

func TestValidateCatchesBadGraphs(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(g *Graph, r, h NodeID)
		want  string
	}{
		{"unattached host", func(g *Graph, r, h NodeID) {
			g.Connect(h, r, rate.Mbps(10), 0)
			g.AddHost("h2")
		}, "host 2 (h2) has 0 links, want 1"},
		{"negative propagation", func(g *Graph, r, h NodeID) {
			g.Connect(h, r, rate.Mbps(10), -time.Nanosecond)
		}, "link 0 has negative propagation -1ns"},
		{"host wired to a host", func(g *Graph, r, h NodeID) {
			g.Connect(h, g.AddHost("h2"), rate.Mbps(10), 0)
		}, "host 1 (h) is linked to host 2, want a router"},
		{"non-positive capacity", func(g *Graph, r, h NodeID) {
			g.Connect(h, r, rate.Rate{}, 0)
		}, "link 0 has non-positive capacity 0"},
	} {
		g := New()
		r, h := g.AddRouter("r"), g.AddHost("h")
		c.build(g, r, h)
		if err := g.Validate(); err == nil || err.Error() != c.want {
			t.Errorf("%s: Validate() = %v, want %q", c.name, err, c.want)
		}
	}
}
