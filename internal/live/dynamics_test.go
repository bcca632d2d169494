package live

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"bneck/internal/graph"
	"bneck/internal/rate"
	"bneck/internal/topology"
)

// buildDiamondLive returns ha–r1–{r2|r3}–r4–hb with the duplex top and
// bottom router routes.
func buildDiamondLive(t *testing.T) (g *graph.Graph, ha, hb graph.NodeID, top, bot [2][2]graph.LinkID) {
	t.Helper()
	g = graph.New()
	r1 := g.AddRouter("r1")
	r2 := g.AddRouter("r2")
	r3 := g.AddRouter("r3")
	r4 := g.AddRouter("r4")
	ha = g.AddHost("ha")
	hb = g.AddHost("hb")
	g.Connect(ha, r1, rate.Mbps(100), time.Microsecond)
	top[0][0], top[0][1] = g.Connect(r1, r2, rate.Mbps(40), time.Microsecond)
	top[1][0], top[1][1] = g.Connect(r2, r4, rate.Mbps(40), time.Microsecond)
	bot[0][0], bot[0][1] = g.Connect(r1, r3, rate.Mbps(25), time.Microsecond)
	bot[1][0], bot[1][1] = g.Connect(r3, r4, rate.Mbps(25), time.Microsecond)
	g.Connect(r4, hb, rate.Mbps(100), time.Microsecond)
	return
}

// TestHostPathSharesMigrationCache: a path handed out by Runtime.HostPath and
// the path a migration picks for the same hosts come from one resolver, the
// controller's.
func TestHostPathSharesMigrationCache(t *testing.T) {
	g, ha, hb, top, _ := buildDiamondLive(t)
	rt := New(g)
	defer rt.Close()
	p, err := rt.HostPath(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	s, err := rt.NewSession(p)
	if err != nil {
		t.Fatal(err)
	}
	s.Join(rate.Inf)
	rt.FailLinks(top[0][0], top[0][1])
	rt.WaitQuiescent()
	if rt.Migrations() != 1 {
		t.Fatalf("%d migrations, want 1", rt.Migrations())
	}
	if again, _ := rt.HostPath(ha, hb); !slices.Equal(again, s.Path()) {
		t.Fatalf("HostPath = %v, the migration picked %v", again, s.Path())
	}
}

func TestLiveSetLinkCapacity(t *testing.T) {
	g, ha, hb, _, _ := buildDiamondLive(t)
	rt := New(g)
	defer rt.Close()
	p, err := graph.NewResolver(g, 8).HostPath(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	s, err := rt.NewSession(p)
	if err != nil {
		t.Fatal(err)
	}
	s.Join(rate.Inf)
	rt.WaitQuiescent()
	if r, _ := s.Rate(); !r.Equal(rate.Mbps(40)) {
		t.Fatalf("pre-change rate = %v", r)
	}
	mid := s.Path()[1]
	rt.SetLinkCapacity(rate.Mbps(9), mid, g.Link(mid).Reverse)
	rt.WaitQuiescent()
	if err := rt.Validate(); err != nil {
		t.Fatal(err)
	}
	if r, _ := s.Rate(); !r.Equal(rate.Mbps(9)) {
		t.Fatalf("post-change rate = %v, want 9 Mbps", r)
	}
}

func TestLiveFailMigratesAndRestoreReadmits(t *testing.T) {
	g, ha, hb, top, _ := buildDiamondLive(t)
	rt := New(g)
	defer rt.Close()
	p, err := graph.NewResolver(g, 8).HostPath(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	s, err := rt.NewSession(p)
	if err != nil {
		t.Fatal(err)
	}
	s.Join(rate.Inf)
	rt.WaitQuiescent()
	oldID := s.ID()

	// Fail the top route: migrate to the 25 Mbps bottom route.
	rt.FailLinks(top[0][0], top[0][1])
	rt.WaitQuiescent()
	if err := rt.Validate(); err != nil {
		t.Fatal(err)
	}
	if r, _ := s.Rate(); !r.Equal(rate.Mbps(25)) {
		t.Fatalf("post-failure rate = %v, want 25 Mbps", r)
	}
	if s.ID() == oldID {
		t.Fatal("migration did not mint a fresh incarnation")
	}
	if rt.Migrations() != 1 {
		t.Fatalf("migrations = %d", rt.Migrations())
	}

	// Fail the bottom route too: stranded.
	bottom := s.Path()[1]
	rt.FailLinks(bottom, g.Link(bottom).Reverse)
	rt.WaitQuiescent()
	if err := rt.Validate(); err != nil {
		t.Fatal(err)
	}
	if !s.Stranded() {
		t.Fatal("session not stranded with no route left")
	}
	if _, ok := s.Rate(); ok {
		t.Fatal("stranded session reports a rate")
	}

	// Restore the top route: the stranded session rejoins there.
	rt.RestoreLinks(top[0][0], top[0][1])
	rt.WaitQuiescent()
	if err := rt.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Stranded() {
		t.Fatal("session still stranded after restore")
	}
	if r, _ := s.Rate(); !r.Equal(rate.Mbps(40)) {
		t.Fatalf("post-restore rate = %v, want 40 Mbps", r)
	}
}

// TestLiveTopologyChurn drives session churn from concurrent goroutines
// while the main goroutine applies link failures, restores and capacity
// changes — the race-detector target for the runtime's dynamic-topology
// locking. After every reconfiguration round the network must re-quiesce and
// match the oracle exactly.
func TestLiveTopologyChurn(t *testing.T) {
	topo, err := topology.Generate(topology.Small, topology.LAN, 21)
	if err != nil {
		t.Fatal(err)
	}
	topo.AddHosts(60)
	g := topo.Graph
	res := graph.NewResolver(g, 64)
	rt := New(g)
	defer rt.Close()
	rng := rand.New(rand.NewSource(5))

	var sessions []*Session
	// startBatch launches the joins on goroutines and returns without
	// waiting, so callers can race them against topology events.
	startBatch := func(n int, wg *sync.WaitGroup) {
		for i := 0; i < n; i++ {
			src, dst := topo.RandomHostPair()
			p, err := res.HostPath(src, dst)
			if err != nil {
				continue // hosts transiently disconnected by churn
			}
			s, err := rt.NewSession(p)
			if err != nil {
				continue
			}
			sessions = append(sessions, s)
			wg.Add(1)
			go func(s *Session) {
				defer wg.Done()
				s.Join(rate.Inf)
			}(s)
		}
	}

	var wg0 sync.WaitGroup
	startBatch(15, &wg0)
	wg0.Wait()
	rt.WaitQuiescent()
	if err := rt.Validate(); err != nil {
		t.Fatal(err)
	}

	var downLinks []graph.LinkID
	routerLinkInUse := func() (graph.LinkID, bool) {
		for _, s := range sessions {
			if s.Stranded() {
				continue
			}
			p := s.Path()
			for _, l := range p[1 : len(p)-1] {
				if g.LinkUp(l) {
					return l, true
				}
			}
		}
		return graph.NoLink, false
	}

	for round := 0; round < 6; round++ {
		// Concurrent session churn — joins AND changes — racing the
		// reconfiguration below (Join snapshots its incarnation under the
		// same lock FailLinks migrates under; this is the race that matters).
		var wg sync.WaitGroup
		startBatch(4, &wg)
		for i := 0; i < 3 && len(sessions) > 0; i++ {
			s := sessions[rng.Intn(len(sessions))]
			wg.Add(1)
			go func(s *Session, d rate.Rate) {
				defer wg.Done()
				s.Change(d)
			}(s, rate.Mbps(int64(1+rng.Intn(80))))
		}
		switch round % 3 {
		case 0:
			if l, ok := routerLinkInUse(); ok {
				downLinks = append(downLinks, l)
				rt.FailLinks(l, g.Link(l).Reverse)
			}
		case 1:
			if l, ok := routerLinkInUse(); ok {
				rt.SetLinkCapacity(rate.Mbps(int64(30+10*round)), l, g.Link(l).Reverse)
			}
		case 2:
			for _, l := range downLinks {
				rt.RestoreLinks(l, g.Link(l).Reverse)
			}
			downLinks = nil
		}
		wg.Wait()
		rt.WaitQuiescent()
		if err := rt.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}

	routed := 0
	for _, s := range sessions {
		if !s.Stranded() {
			if _, ok := s.Rate(); ok {
				routed++
			}
		}
	}
	if routed == 0 {
		t.Fatal("no routed sessions survived the churn")
	}
}

// TestDoubleJoinIsChange: a Join of a session that is already joined changes
// its demand (internal/control). The runtime used to record the new demand
// while the protocol kept the old one, so Validate failed.
func TestDoubleJoinIsChange(t *testing.T) {
	g, ha, hb, _, _ := buildDiamondLive(t)
	rt := New(g)
	defer rt.Close()
	p, err := rt.HostPath(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	s, err := rt.NewSession(p)
	if err != nil {
		t.Fatal(err)
	}
	s.Join(rate.Mbps(10))
	rt.WaitQuiescent()
	s.Join(rate.Mbps(20))
	rt.WaitQuiescent()
	if err := rt.Validate(); err != nil {
		t.Fatal(err)
	}
	if n, rates := rt.Incarnations(), len(rt.Rates()); n != 1 || rates != 1 {
		t.Fatalf("%d incarnations, %d rates after the second Join, want 1 each", n, rates)
	}
	if r, ok := s.Rate(); !ok || !r.Equal(rate.Mbps(20)) {
		t.Fatalf("rate %v (%t) after the second Join, want its 20 Mbps demand", r, ok)
	}
	s.Leave()
	rt.WaitQuiescent()
	if err := rt.Validate(); err != nil {
		t.Fatal(err)
	}
	if n, rates := rt.Incarnations(), len(rt.Rates()); n != 0 || rates != 0 {
		t.Fatalf("%d incarnations, %d rates after the Leave, want none", n, rates)
	}
}

// TestBadLinkInputChangesNothing: a topology call naming a link the graph
// lacks, or a non-positive capacity, returns an error and changes nothing —
// no link fails before the bad one is reached, no session moves, and the
// runtime still validates.
func TestBadLinkInputChangesNothing(t *testing.T) {
	g, ha, hb, top, _ := buildDiamondLive(t)
	rt := New(g)
	defer rt.Close()
	p, _ := rt.HostPath(ha, hb)
	s, _ := rt.NewSession(p)
	s.Join(rate.Inf)
	rt.WaitQuiescent()
	good, id, bad := top[0][0], s.ID(), graph.LinkID(g.NumLinks()+9999)
	for name, call := range map[string]func() error{
		"fail":                func() error { return rt.FailLinks(good, bad) },
		"restore":             func() error { return rt.RestoreLinks(good, -1) },
		"set capacity":        func() error { return rt.SetLinkCapacity(rate.Mbps(80), good, bad) },
		"zero capacity":       func() error { return rt.SetLinkCapacity(rate.Zero, good) },
		"negative capacity":   func() error { return rt.SetLinkCapacity(rate.Mbps(-1), good) },
		"fail, bad link only": func() error { return rt.FailLinks(-1) },
	} {
		if err := call(); err == nil {
			t.Errorf("%s: no error", name)
		}
		rt.WaitQuiescent()
		if !g.LinkUp(good) || !g.Link(good).Capacity.Equal(rate.Mbps(40)) || s.ID() != id || !s.Active() ||
			!slices.Equal(s.Path(), p) || rt.Migrations() != 0 {
			t.Fatalf("%s changed the runtime: link up %t at %v, session %d→%d active %t, %d migrations",
				name, g.LinkUp(good), g.Link(good).Capacity, id, s.ID(), s.Active(), rt.Migrations())
		}
		if err := rt.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
