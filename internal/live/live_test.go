package live

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"bneck/internal/core"
	"bneck/internal/graph"
	"bneck/internal/rate"
	"bneck/internal/topology"
	"bneck/internal/waterfill"
)

func buildDumbbell(t *testing.T) (*graph.Graph, []graph.Path) {
	t.Helper()
	g := graph.New()
	r1 := g.AddRouter("r1")
	r2 := g.AddRouter("r2")
	g.Connect(r1, r2, rate.Mbps(60), time.Microsecond)
	res := graph.NewResolver(g, 16)
	var paths []graph.Path
	for i := 0; i < 2; i++ {
		ha := g.AddHost("ha")
		hb := g.AddHost("hb")
		g.Connect(ha, r1, rate.Mbps(100), time.Microsecond)
		g.Connect(hb, r2, rate.Mbps(100), time.Microsecond)
		p, err := graph.NewResolver(g, 16).HostPath(ha, hb)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	_ = res
	return g, paths
}

func TestLiveConvergesAndQuiesces(t *testing.T) {
	g, paths := buildDumbbell(t)
	rt := New(g)
	defer rt.Close()
	s1, err := rt.NewSession(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	s2, err := rt.NewSession(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	s1.Join(rate.Inf)
	s2.Join(rate.Inf)
	rt.WaitQuiescent()
	want := rate.Mbps(30)
	if r, ok := s1.Rate(); !ok || !r.Equal(want) {
		t.Fatalf("s1 rate = %v (%t)", r, ok)
	}
	if r, ok := s2.Rate(); !ok || !r.Equal(want) {
		t.Fatalf("s2 rate = %v (%t)", r, ok)
	}
}

func TestLiveDynamics(t *testing.T) {
	g, paths := buildDumbbell(t)
	rt := New(g)
	defer rt.Close()
	s1, _ := rt.NewSession(paths[0])
	s2, _ := rt.NewSession(paths[1])
	s1.Join(rate.Inf)
	rt.WaitQuiescent()
	if r, _ := s1.Rate(); !r.Equal(rate.Mbps(60)) {
		t.Fatalf("solo rate = %v", r)
	}
	s2.Join(rate.Inf)
	rt.WaitQuiescent()
	if r, _ := s2.Rate(); !r.Equal(rate.Mbps(30)) {
		t.Fatalf("shared rate = %v", r)
	}
	s1.Leave()
	rt.WaitQuiescent()
	if r, _ := s2.Rate(); !r.Equal(rate.Mbps(60)) {
		t.Fatalf("post-leave rate = %v", r)
	}
	s2.Change(rate.Mbps(10))
	rt.WaitQuiescent()
	if r, _ := s2.Rate(); !r.Equal(rate.Mbps(10)) {
		t.Fatalf("post-change rate = %v", r)
	}
}

// TestLiveMatchesOracleOnTopology runs a real concurrent deployment over a
// generated topology and validates against the centralized oracle — the
// paper's validation, but with true parallelism instead of a simulator.
func TestLiveMatchesOracleOnTopology(t *testing.T) {
	topo, err := topology.Generate(topology.Small, topology.LAN, 11)
	if err != nil {
		t.Fatal(err)
	}
	topo.AddHosts(80)
	g := topo.Graph
	res := graph.NewResolver(g, 64)
	rt := New(g)
	defer rt.Close()

	const n = 40
	sessions := make([]*Session, 0, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		src, dst := topo.RandomHostPair()
		p, err := res.HostPath(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		s, err := rt.NewSession(p)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	// Join concurrently from many goroutines.
	for _, s := range sessions {
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			s.Join(rate.Inf)
		}(s)
	}
	wg.Wait()
	rt.WaitQuiescent()

	// Oracle comparison.
	linkIdx := make(map[graph.LinkID]int)
	var inst waterfill.Instance
	for _, s := range sessions {
		ws := waterfill.Session{Demand: rate.Inf}
		for _, l := range s.Path() {
			li, ok := linkIdx[l]
			if !ok {
				li = len(inst.Capacity)
				linkIdx[l] = li
				inst.Capacity = append(inst.Capacity, g.Link(l).Capacity)
			}
			ws.Path = append(ws.Path, li)
		}
		inst.Sessions = append(inst.Sessions, ws)
	}
	want, err := waterfill.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sessions {
		got, ok := s.Rate()
		if !ok {
			t.Fatalf("session %d has no rate", i)
		}
		if !got.Equal(want[i]) {
			t.Fatalf("session %d rate = %v, oracle %v", i, got, want[i])
		}
	}

	// Validate reaches the same verdict, also from several goroutines at
	// once: they share the runtime's one kept assembler and solver.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				if err := rt.Validate(); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
}

func TestLiveChurnStress(t *testing.T) {
	topo, err := topology.Generate(topology.Small, topology.LAN, 13)
	if err != nil {
		t.Fatal(err)
	}
	topo.AddHosts(60)
	g := topo.Graph
	res := graph.NewResolver(g, 64)
	rt := New(g)
	defer rt.Close()
	rng := rand.New(rand.NewSource(3))

	var sessions []*Session
	for round := 0; round < 5; round++ {
		// Join a batch.
		for i := 0; i < 10; i++ {
			src, dst := topo.RandomHostPair()
			p, err := res.HostPath(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			s, err := rt.NewSession(p)
			if err != nil {
				t.Fatal(err)
			}
			s.Join(rate.Inf)
			sessions = append(sessions, s)
		}
		// Leave/change a few concurrently with the joins settling.
		if len(sessions) > 5 {
			sessions[rng.Intn(len(sessions))].Change(rate.Mbps(int64(1 + rng.Intn(40))))
		}
		rt.WaitQuiescent()
	}
	// All sessions must hold some confirmed rate.
	for i, s := range sessions {
		if _, ok := s.Rate(); !ok {
			t.Fatalf("session %d has no rate after churn", i)
		}
	}
}

func TestWaitQuiescentIdempotent(t *testing.T) {
	g, paths := buildDumbbell(t)
	rt := New(g)
	defer rt.Close()
	rt.WaitQuiescent() // empty network is quiescent
	s, _ := rt.NewSession(paths[0])
	s.Join(rate.Mbps(5))
	rt.WaitQuiescent()
	rt.WaitQuiescent()
	if r, _ := s.Rate(); !r.Equal(rate.Mbps(5)) {
		t.Fatalf("rate = %v", r)
	}
}

func TestCloseDropsQueuedWork(t *testing.T) {
	g, paths := buildDumbbell(t)
	rt := New(g)
	s, _ := rt.NewSession(paths[0])
	s.Join(rate.Inf)
	rt.Close()
	// Enqueue after close must be a no-op rather than a hang or panic.
	s.Leave()
	_ = s
}

// TestCloseMidCascade (ROADMAP item 3(d), the live half): Close lands while
// 256 join cascades are running. It returns, the network then goes quiescent,
// the workers caught mid-cascade end, and every later call is a no-op — no
// packet, no migration, no link taken down — and nothing panics or hangs.
func TestCloseMidCascade(t *testing.T) {
	topo, err := topology.Generate(topology.Small, topology.LAN, 17)
	if err != nil {
		t.Fatal(err)
	}
	const n = 256
	hosts := topo.AddHosts(2 * n)
	g := topo.Graph
	base := settledGoroutines()
	rt := New(g)
	sessions := make([]*Session, n)
	for i := range sessions {
		p, err := rt.HostPath(hosts[i], hosts[n+i])
		if err != nil {
			t.Fatal(err)
		}
		if sessions[i], err = rt.NewSession(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range sessions {
		s.Join(rate.Inf)
	}
	for totalPackets(rt) < n { // the cascades are in full flight, a few per cent done
		runtime.Gosched()
	}
	rt.Close()
	waitOrFail(t, rt.activity)
	rt.WaitQuiescent()
	awaitGoroutines(t, base)

	packets := totalPackets(rt)
	victim := sessions[0].Path()[1]
	sessions[0].Leave()
	sessions[0].Join(rate.Mbps(3))
	sessions[1].Change(rate.Mbps(5))
	sessions[2].Leave()
	rt.FailLinks(victim, g.LinkReverse(victim))
	rt.RestoreLinks(victim, g.LinkReverse(victim))
	rt.SetLinkCapacity(rate.Mbps(1), victim)
	rt.Close()
	if got := rt.activity.n.Load(); got != 0 {
		t.Fatalf("counter = %d after calls on a closed runtime, want 0", got)
	}
	rt.WaitQuiescent()
	if !g.LinkUp(victim) || rt.Migrations() != 0 || totalPackets(rt) != packets {
		t.Fatalf("closed runtime acted: link up %t, %d migrations, packets %d → %d",
			g.LinkUp(victim), rt.Migrations(), packets, totalPackets(rt))
	}
}

func TestSessionUnknownDrops(t *testing.T) {
	g, paths := buildDumbbell(t)
	rt := New(g)
	defer rt.Close()
	// Emitting for an unknown session must not panic or hang.
	(&emitter{rt: rt}).Emit(core.SessionID(999), 0, core.Down, core.Packet{Type: core.PktJoin})
	rt.WaitQuiescent()
	_ = paths
}

// TestNewSessionRejectsUnknownLink: a path naming a link the graph does not
// have is an error, not a panic, and registers nothing with the controller.
func TestNewSessionRejectsUnknownLink(t *testing.T) {
	g, paths := buildDumbbell(t)
	rt := New(g)
	defer rt.Close()
	for _, p := range []graph.Path{
		append(append(graph.Path(nil), paths[0][:2]...), graph.LinkID(g.NumLinks())),
		{paths[0][0], -1},
	} {
		if _, err := rt.NewSession(p); err == nil {
			t.Errorf("NewSession(%v) succeeded, want an error", p)
		}
	}
	if rt.ctl.Len() != 0 {
		t.Fatalf("the controller holds %d incarnations after rejected NewSessions", rt.ctl.Len())
	}
}

// TestCallsAfterCloseAreNoOps: on a closed runtime each session and topology
// call returns without acting — the session keeps its incarnation and state,
// the controller mints nothing, no link goes down and no message is queued —
// and NewSession is an error. (TestCloseMidCascade closes mid-cascade.)
func TestCallsAfterCloseAreNoOps(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(rt *Runtime, s *Session, l graph.LinkID)
	}{
		{"join", func(_ *Runtime, s *Session, _ graph.LinkID) { s.Join(rate.Mbps(3)) }},
		{"leave", func(_ *Runtime, s *Session, _ graph.LinkID) { s.Leave() }},
		{"change", func(_ *Runtime, s *Session, _ graph.LinkID) { s.Change(rate.Mbps(5)) }},
		{"fail", func(rt *Runtime, _ *Session, l graph.LinkID) { rt.FailLinks(l, rt.g.LinkReverse(l)) }},
		{"set capacity", func(rt *Runtime, _ *Session, l graph.LinkID) { rt.SetLinkCapacity(rate.Mbps(1), l) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, paths := buildDumbbell(t)
			rt := New(g)
			s, err := rt.NewSession(paths[0])
			if err != nil {
				t.Fatal(err)
			}
			s.Join(rate.Inf)
			rt.WaitQuiescent()
			rt.Close()
			l, id, n := s.Path()[1], s.ID(), rt.ctl.Len()
			tc.call(rt, s, l)
			if s.ID() != id || !s.Active() || rt.ctl.Len() != n || !g.LinkUp(l) || rt.Migrations() != 0 {
				t.Fatalf("closed runtime acted: incarnation %d→%d, active %t, %d→%d incarnations, link up %t, %d migrations",
					id, s.ID(), s.Active(), n, rt.ctl.Len(), g.LinkUp(l), rt.Migrations())
			}
			if got := rt.activity.n.Load(); got != 0 {
				t.Fatalf("%d messages queued on a closed runtime", got)
			}
			if !g.Link(l).Capacity.Equal(rate.Mbps(60)) {
				t.Fatalf("closed runtime reconfigured link %d to %v", l, g.Link(l).Capacity)
			}
			if _, err := rt.NewSession(paths[1]); err == nil {
				t.Fatal("NewSession on a closed runtime succeeded")
			}
		})
	}
}
