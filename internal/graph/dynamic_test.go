package graph

import (
	"testing"
	"time"

	"bneck/internal/rate"
)

// diamondTopo builds ha - r1 - {r2 | r3} - r4 - hb: two disjoint router
// routes between r1 and r4, so failing one leaves an alternative.
func diamondTopo(t *testing.T) (g *Graph, ha, hb NodeID, topLinks, botLinks [2]LinkID) {
	t.Helper()
	g = New()
	r1 := g.AddRouter("r1")
	r2 := g.AddRouter("r2")
	r3 := g.AddRouter("r3")
	r4 := g.AddRouter("r4")
	ha = g.AddHost("ha")
	hb = g.AddHost("hb")
	c := rate.Mbps(100)
	g.Connect(ha, r1, c, time.Microsecond)
	topLinks[0], _ = g.Connect(r1, r2, c, time.Microsecond)
	topLinks[1], _ = g.Connect(r2, r4, c, time.Microsecond)
	botLinks[0], _ = g.Connect(r1, r3, c, time.Microsecond)
	botLinks[1], _ = g.Connect(r3, r4, c, time.Microsecond)
	g.Connect(r4, hb, c, time.Microsecond)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g, ha, hb, topLinks, botLinks
}

func TestSetCapacity(t *testing.T) {
	g, _, _, top, _ := diamondTopo(t)
	g.SetCapacity(top[0], rate.Mbps(7))
	if got := g.Link(top[0]).Capacity; !got.Equal(rate.Mbps(7)) {
		t.Fatalf("capacity = %v, want 7 Mbps", got)
	}
	if g.failed != 0 || !g.LinkUp(top[0]) {
		t.Fatal("SetCapacity took a link down")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate after SetCapacity: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetCapacity accepted a non-positive capacity")
		}
	}()
	g.SetCapacity(top[0], rate.Zero)
}

func TestFailRestoreReroutes(t *testing.T) {
	g, ha, hb, top, bot := diamondTopo(t)
	r := NewResolver(g, 8)

	p1, err := r.HostPath(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	// BFS tie-breaking by insertion order picks the top route (r1→r2→r4).
	if p1[1] != top[0] || p1[2] != top[1] {
		t.Fatalf("initial path = %v, want top route", p1)
	}

	g.FailLink(top[0])
	g.FailLink(g.Link(top[0]).Reverse)
	if g.failed != 2 {
		t.Fatalf("%d links counted failed, want 2", g.failed)
	}
	if g.LinkUp(top[0]) {
		t.Fatal("failed link reported up")
	}
	if err := ValidatePath(g, p1); err == nil {
		t.Fatal("ValidatePath accepted a path over a failed link")
	}

	p2, err := r.HostPath(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	if p2[1] != bot[0] || p2[2] != bot[1] {
		t.Fatalf("rerouted path = %v, want bottom route", p2)
	}
	if err := ValidatePath(g, p2); err != nil {
		t.Fatalf("rerouted path invalid: %v", err)
	}

	// Fail the alternative too: no route remains.
	g.FailLink(bot[0])
	if _, err := r.HostPath(ha, hb); err == nil {
		t.Fatal("HostPath found a path through failed links")
	}

	// Restore both; resolution returns to the original shortest path.
	g.RestoreLink(top[0])
	g.RestoreLink(g.Link(top[0]).Reverse)
	g.RestoreLink(bot[0])
	p3, err := r.HostPath(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	if p3[1] != top[0] {
		t.Fatalf("restored path = %v, want top route again", p3)
	}
}

func TestFailAccessLink(t *testing.T) {
	g, ha, hb, _, _ := diamondTopo(t)
	r := NewResolver(g, 8)
	g.FailLink(g.AccessLink(ha))
	if _, err := r.HostPath(ha, hb); err == nil {
		t.Fatal("HostPath succeeded over a failed source access link")
	}
	g.RestoreLink(g.AccessLink(ha))
	g.FailLink(g.Link(g.AccessLink(hb)).Reverse)
	if _, err := r.HostPath(ha, hb); err == nil {
		t.Fatal("HostPath succeeded over a failed destination access link")
	}
}

func TestFailRestoreIdempotent(t *testing.T) {
	g, _, _, top, _ := diamondTopo(t)
	g.FailLink(top[0])
	g.FailLink(top[0]) // already down: no-op
	if g.failed != 1 {
		t.Fatalf("re-failing a failed link: %d links counted failed, want 1", g.failed)
	}
	g.RestoreLink(top[0])
	g.RestoreLink(top[0]) // already up: no-op
	if g.failed != 0 {
		t.Fatalf("re-restoring an up link: %d links counted failed, want 0", g.failed)
	}
}

// TestResolverStaleTreeRecomputed: a route resolved before a failure is not
// served after it.
func TestResolverStaleTreeRecomputed(t *testing.T) {
	g, ha, hb, top, bot := diamondTopo(t)
	r := NewResolver(g, 1)
	if _, err := r.HostPath(ha, hb); err != nil {
		t.Fatal(err)
	}
	g.FailLink(top[0])
	p, err := r.HostPath(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	if p[1] != bot[0] {
		t.Fatalf("route from before the failure served after it: path %v", p)
	}
}
