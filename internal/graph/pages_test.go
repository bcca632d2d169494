package graph

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"bneck/internal/rate"
)

const pageSize = 1 << pageBits

// TestPageBoundaries grows a graph to three pages and one entry of nodes and
// three pages and two entries of links, holding a plain-slice copy of
// everything it adds, and checks every ID, every Link field, Capacity and
// every Out sequence against it — including a hub whose out-links fall on
// every page — before and after SetCapacity, FailLink and RestoreLink on
// links at the page edges.
func TestPageBoundaries(t *testing.T) {
	const n = 3*pageSize + 1
	rng := rand.New(rand.NewSource(1))
	g := New()
	var want []Link
	out := make([][]LinkID, n)
	kinds := make([]Kind, n)
	for i := range n {
		kinds[i] = Router
		add := g.AddRouter
		if i%5 == 4 {
			kinds[i], add = Host, g.AddHost
		}
		if id := add(""); id != NodeID(i) {
			t.Fatalf("node %d got ID %d", i, id)
		}
	}
	record := func(from, to NodeID, c rate.Rate, p time.Duration, rev LinkID) {
		id := LinkID(len(want))
		want = append(want, Link{ID: id, From: from, To: to, Capacity: c, Propagation: p, Reverse: rev})
		out[from] = append(out[from], id)
	}
	const hub = NodeID(pageSize - 1) // the last node of page 0
	for len(want) < n-1 {
		a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if len(want)%97 == 0 {
			a = hub
		}
		if a == b {
			continue
		}
		c, p := rate.Mbps(int64(1+rng.Intn(100))), time.Duration(rng.Intn(1000))
		ab, ba := g.Connect(a, b, c, p)
		if ab != LinkID(len(want)) || ba != ab+1 {
			t.Fatalf("Connect returned (%d, %d) at %d links", ab, ba, len(want))
		}
		record(a, b, c, p, ba)
		record(b, a, c, p, ab)
	}
	if ab, ba := g.Connect(hub, 0, rate.Inf, time.Second); ab != n-1 || ba != n {
		t.Fatalf("Connect returned (%d, %d), want (%d, %d)", ab, ba, n-1, n)
	}
	record(hub, 0, rate.Inf, time.Second, n)
	record(0, hub, rate.Inf, time.Second, n-1)
	onPage := map[LinkID]bool{}
	for _, l := range out[hub] {
		onPage[l>>pageBits] = true
	}
	if len(onPage) != 4 {
		t.Fatalf("hub's links fall on %d pages, want all 4", len(onPage))
	}

	check := func(when string) {
		t.Helper()
		if g.NumNodes() != n || g.NumLinks() != n+1 {
			t.Fatalf("%s: %d nodes, %d links, want %d and %d", when, g.NumNodes(), g.NumLinks(), n, n+1)
		}
		for i, w := range want {
			id := LinkID(i)
			if got := g.Link(id); got.ID != w.ID || got.From != w.From || got.To != w.To ||
				!got.Capacity.Equal(w.Capacity) || got.Capacity.IsInf() != w.Capacity.IsInf() ||
				got.Propagation != w.Propagation || got.Reverse != w.Reverse || got.Failed != w.Failed {
				t.Fatalf("%s: Link(%d) = %+v, want %+v", when, id, got, w)
			}
			if !g.Capacity(id).Equal(w.Capacity) || g.LinkUp(id) == w.Failed {
				t.Fatalf("%s: link %d: Capacity %v, up %v", when, id, g.Capacity(id), g.LinkUp(id))
			}
		}
		for i := range n {
			id := NodeID(i)
			if got := g.Node(id); got.ID != id || got.Kind != kinds[i] {
				t.Fatalf("%s: Node(%d) = %+v, want a %v", when, id, got, kinds[i])
			}
			if got := slices.Collect(g.Out(id)); !slices.Equal(got, out[i]) {
				t.Fatalf("%s: Out(%d) = %v, want %v", when, id, got, out[i])
			}
		}
	}
	check("grown")

	edges := []LinkID{0, pageSize - 1, pageSize, 2*pageSize - 1, 2 * pageSize, 3*pageSize - 1, 3 * pageSize}
	for i, id := range edges {
		c := rate.Mbps(int64(1000 + i))
		g.SetCapacity(id, c)
		want[id].Capacity = c
		if i%2 == 0 {
			g.FailLink(id)
			want[id].Failed = true
		}
	}
	check("mutated")
	for _, id := range edges {
		g.RestoreLink(id)
		want[id].Failed = false
	}
	check("restored")
}

// TestBuildAllocations pins the storage's allocation count: building a graph
// allocates once per page of each store, plus a constant (≈ 50: the first
// pages' growth by append and the page lists'), however many nodes and links
// it holds. Anything allocated per node or per link, like the out slice each
// node used to have, fails it.
func TestBuildAllocations(t *testing.T) {
	for _, chains := range []int{100, 400} {
		var links int
		allocs := testing.AllocsPerRun(3, func() {
			g := New()
			for range chains {
				prev := g.AddHost("")
				for range 32 {
					next := g.AddRouter("")
					g.Connect(prev, next, rate.Mbps(100), time.Microsecond)
					prev = next
				}
				g.Connect(prev, g.AddHost(""), rate.Mbps(100), time.Microsecond)
			}
			links = g.NumLinks()
		})
		pages := 3 * (links/pageSize + 1) // links, capacities and nodes
		if limit := pages + 60; allocs > float64(limit) {
			t.Errorf("%d chains (%d links): %v allocations, want at most %d", chains, links, allocs, limit)
		}
		t.Logf("%d chains (%d links): %v allocations", chains, links, allocs)
	}
}
