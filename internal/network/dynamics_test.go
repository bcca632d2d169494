package network

import (
	"math/rand"
	"testing"
	"time"

	"bneck/internal/graph"
	"bneck/internal/rate"
	"bneck/internal/sim"
	"bneck/internal/topology"
)

// buildDiamond returns ha–r1–{r2|r3}–r4–hb with the two duplex router routes
// exposed as (forward, reverse) pairs.
func buildDiamond() (g *graph.Graph, ha, hb graph.NodeID, top, bot [2][2]graph.LinkID) {
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

func TestScheduledCapacityChange(t *testing.T) {
	g, ha, hb := buildLine(rate.Mbps(40))
	eng := sim.New()
	n := New(g, eng, DefaultConfig())
	path, err := n.HostPath(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := n.NewSession(ha, hb, path)
	n.ScheduleJoin(s, 0, rate.Inf)
	n.Run()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Rate(); !got.Equal(rate.Mbps(40)) {
		t.Fatalf("pre-change rate = %v", got)
	}

	mid := path[1] // r1→r2
	n.ScheduleSetCapacity(eng.Now()+time.Millisecond, rate.Mbps(10), mid, g.Link(mid).Reverse)
	n.Run()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Rate(); !got.Equal(rate.Mbps(10)) {
		t.Fatalf("post-shrink rate = %v, want 10 Mbps", got)
	}

	n.ScheduleSetCapacity(eng.Now()+time.Millisecond, rate.Mbps(60), mid, g.Link(mid).Reverse)
	n.Run()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Rate(); !got.Equal(rate.Mbps(60)) {
		t.Fatalf("post-grow rate = %v, want 60 Mbps", got)
	}
}

func TestLinkFailMigratesSession(t *testing.T) {
	g, ha, hb, top, _ := buildDiamond()
	eng := sim.New()
	n := New(g, eng, DefaultConfig())
	path, err := n.HostPath(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := n.NewSession(ha, hb, path)
	n.ScheduleJoin(s, 0, rate.Inf)
	n.Run()
	if got, _ := s.Rate(); !got.Equal(rate.Mbps(40)) {
		t.Fatalf("pre-failure rate = %v (expected top route)", got)
	}

	// Fail the top route's first hop (duplex): the session must migrate to
	// the 25 Mbps bottom route through its own Leave → reroute → Join.
	n.ScheduleLinkFail(eng.Now()+time.Millisecond, top[0][0], top[0][1])
	n.Run()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Rate(); !got.Equal(rate.Mbps(25)) {
		t.Fatalf("post-failure rate = %v, want 25 Mbps via bottom route", got)
	}
	if n.Migrations() != 1 {
		t.Fatalf("migrations = %d, want 1", n.Migrations())
	}
	if !s.Active() {
		t.Fatal("migrated session not active")
	}
	cur := s.Current()
	if cur == s || cur.ID == s.ID {
		t.Fatal("migration did not mint a successor with a fresh ID")
	}

	// Restore: existing sessions keep their (pinned) path; the network stays
	// valid and silent.
	n.ScheduleLinkRestore(eng.Now()+time.Millisecond, top[0][0], top[0][1])
	n.Run()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Rate(); !got.Equal(rate.Mbps(25)) {
		t.Fatalf("post-restore rate = %v (paths are pinned)", got)
	}
}

func TestLinkFailStrandsAndRestoreReadmits(t *testing.T) {
	g, ha, hb := buildLine(rate.Mbps(40))
	eng := sim.New()
	n := New(g, eng, DefaultConfig())
	path, err := n.HostPath(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := n.NewSession(ha, hb, path)
	n.ScheduleJoin(s, 0, rate.Mbps(15))
	n.Run()

	mid := path[1]
	n.ScheduleLinkFail(eng.Now()+time.Millisecond, mid, g.Link(mid).Reverse)
	n.Run()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if !s.Stranded() {
		t.Fatal("session not stranded after losing its only route")
	}
	if s.Active() {
		t.Fatal("stranded session still active")
	}
	if n.StrandedSessions() != 1 {
		t.Fatalf("stranded count = %d", n.StrandedSessions())
	}
	if _, ok := s.Rate(); ok {
		t.Fatal("stranded session still reports a rate")
	}

	n.ScheduleLinkRestore(eng.Now()+time.Millisecond, mid, g.Link(mid).Reverse)
	n.Run()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Stranded() || !s.Active() {
		t.Fatal("session did not rejoin on restore")
	}
	if got, _ := s.Rate(); !got.Equal(rate.Mbps(15)) {
		t.Fatalf("rejoined rate = %v, want the original 15 Mbps demand", got)
	}
	if n.StrandedSessions() != 0 {
		t.Fatalf("stranded count after restore = %d", n.StrandedSessions())
	}
}

func TestJoinAfterFailReroutes(t *testing.T) {
	// The join fires after its resolved path broke: it must reroute at join
	// time rather than join across a failed link.
	g, ha, hb, top, _ := buildDiamond()
	eng := sim.New()
	n := New(g, eng, DefaultConfig())
	path, err := n.HostPath(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := n.NewSession(ha, hb, path)
	n.ScheduleLinkFail(time.Millisecond, top[0][0], top[0][1])
	n.ScheduleJoin(s, 2*time.Millisecond, rate.Inf)
	n.Run()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Rate(); !got.Equal(rate.Mbps(25)) {
		t.Fatalf("rate = %v, want 25 Mbps via surviving route", got)
	}
}

func TestLeaveOfStrandedSessionDissolves(t *testing.T) {
	g, ha, hb := buildLine(rate.Mbps(40))
	eng := sim.New()
	n := New(g, eng, DefaultConfig())
	path, _ := n.HostPath(ha, hb)
	s, _ := n.NewSession(ha, hb, path)
	n.ScheduleJoin(s, 0, rate.Inf)
	mid := path[1]
	n.ScheduleLinkFail(time.Millisecond, mid, g.Link(mid).Reverse)
	n.ScheduleLeave(s, 2*time.Millisecond)
	n.ScheduleLinkRestore(3*time.Millisecond, mid, g.Link(mid).Reverse)
	n.Run()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Active() || s.Stranded() {
		t.Fatal("left session resurrected by restore")
	}
	if n.StrandedSessions() != 0 {
		t.Fatalf("stranded count = %d", n.StrandedSessions())
	}
}

// TestTransitStubReconfigurationEpochs is the acceptance scenario on the sim
// transport: a seeded TransitStub workload survives ≥3 link failures/restores
// and ≥2 capacity changes, re-converging to the exact water-filling rates
// (Validate) after every reconfiguration epoch.
func TestTransitStubReconfigurationEpochs(t *testing.T) {
	topo, err := topology.Generate(topology.Small, topology.LAN, 42)
	if err != nil {
		t.Fatal(err)
	}
	g := topo.Graph
	eng := sim.New()
	n := New(g, eng, DefaultConfig())

	hosts := topo.AddHosts(60)
	rng := rand.New(rand.NewSource(99))
	var sessions []*Session
	for i := 0; i < 30; i++ {
		src := hosts[i]
		dst := hosts[30+rng.Intn(30)]
		path, err := n.HostPath(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		s, err := n.NewSession(src, dst, path)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
		n.ScheduleJoin(s, time.Duration(rng.Int63n(int64(time.Millisecond))), rate.Inf)
	}
	epoch := func(name string, schedule func(at sim.Time)) {
		t.Helper()
		at := eng.Now() + time.Millisecond
		schedule(at)
		n.Run()
		if err := n.Validate(); err != nil {
			t.Fatalf("epoch %q: %v", name, err)
		}
		// Quiescence check: a virtual second with zero packets.
		before := n.Stats().Total()
		eng.RunUntil(eng.Now() + time.Second)
		if n.Stats().Total() != before {
			t.Fatalf("epoch %q: traffic after quiescence", name)
		}
	}
	epoch("initial join burst", func(sim.Time) {})

	// Pick router–router links actually in use by active sessions, so every
	// event disturbs real traffic.
	routerLinkInUse := func() graph.LinkID {
		for _, s := range sessions {
			cur := s.Current()
			if !cur.Active() {
				continue
			}
			for _, l := range cur.Path[1 : len(cur.Path)-1] {
				if g.LinkUp(l) {
					return l
				}
			}
		}
		t.Fatal("no in-use router link found")
		return graph.NoLink
	}

	var failedLinks []graph.LinkID
	for i := 0; i < 3; i++ {
		l := routerLinkInUse()
		failedLinks = append(failedLinks, l)
		epoch("fail", func(at sim.Time) { n.ScheduleLinkFail(at, l, g.Link(l).Reverse) })
		if i == 0 {
			epoch("shrink capacity", func(at sim.Time) {
				c := routerLinkInUse()
				n.ScheduleSetCapacity(at, rate.Mbps(37), c, g.Link(c).Reverse)
			})
		}
	}
	epoch("grow capacity", func(at sim.Time) {
		c := routerLinkInUse()
		n.ScheduleSetCapacity(at, rate.Mbps(444), c, g.Link(c).Reverse)
	})
	for _, l := range failedLinks {
		epoch("restore", func(at sim.Time) { n.ScheduleLinkRestore(at, l, g.Link(l).Reverse) })
	}

	active := 0
	for _, s := range sessions {
		if s.Active() {
			active++
		}
	}
	if active == 0 {
		t.Fatal("no sessions survived the scenario")
	}
}

// TestDynamicsDeterministic locks in that a topology-churn run is a pure
// function of its seed.
func TestDynamicsDeterministic(t *testing.T) {
	run := func() (uint64, map[int64]string) {
		topo, err := topology.Generate(topology.Small, topology.LAN, 7)
		if err != nil {
			t.Fatal(err)
		}
		g := topo.Graph
		eng := sim.New()
		n := New(g, eng, DefaultConfig())
		hosts := topo.AddHosts(40)
		rng := rand.New(rand.NewSource(11))
		var sessions []*Session
		for i := 0; i < 20; i++ {
			src, dst := hosts[i], hosts[20+rng.Intn(20)]
			path, err := n.HostPath(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			s, _ := n.NewSession(src, dst, path)
			sessions = append(sessions, s)
			n.ScheduleJoin(s, time.Duration(rng.Int63n(int64(time.Millisecond))), rate.Inf)
		}
		n.Run()
		for i := 0; i < 4; i++ {
			var l graph.LinkID
			for _, s := range sessions {
				cur := s.Current()
				if cur.Active() && len(cur.Path) > 2 {
					l = cur.Path[1]
					break
				}
			}
			at := eng.Now() + time.Millisecond
			switch i % 2 {
			case 0:
				n.ScheduleLinkFail(at, l, g.Link(l).Reverse)
			case 1:
				n.ScheduleSetCapacity(at, rate.Mbps(int64(50+i)), l, g.Link(l).Reverse)
			}
			n.Run()
			if err := n.Validate(); err != nil {
				t.Fatal(err)
			}
		}
		rates := make(map[int64]string)
		for i, s := range sessions {
			if r, ok := s.Rate(); ok {
				rates[int64(i)] = r.String()
			}
		}
		return n.Stats().Total(), rates
	}
	p1, r1 := run()
	p2, r2 := run()
	if p1 != p2 {
		t.Fatalf("packet totals differ: %d vs %d", p1, p2)
	}
	for k, v := range r1 {
		if r2[k] != v {
			t.Fatalf("session %d rate differs: %s vs %s", k, v, r2[k])
		}
	}
}

// TestRejoinMintsFreshIncarnation pins the fresh-ID rule for plain user
// rejoins: a session that leaves and joins again must continue as a
// successor incarnation (new protocol ID), never re-use the departed one —
// stale responses of the departed lifetime still in flight would otherwise
// be mistaken for the new lifetime's and corrupt link state machines.
func TestRejoinMintsFreshIncarnation(t *testing.T) {
	g, ha, hb := buildLine(rate.Mbps(40))
	eng := sim.New()
	n := New(g, eng, DefaultConfig())
	res := graph.NewResolver(g, 8)
	path, err := res.HostPath(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	s, err := n.NewSession(ha, hb, path)
	if err != nil {
		t.Fatal(err)
	}
	orig := s.ID
	n.ScheduleJoin(s, 0, rate.Inf)
	// The leave lands mid-convergence and the rejoin chases it closely, the
	// exact shape that used to resurrect the departed ID.
	n.ScheduleLeave(s, 40*time.Microsecond)
	n.ScheduleJoin(s, 45*time.Microsecond, rate.Mbps(10))
	n.Run()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	cur := s.Current()
	if cur.ID == orig {
		t.Fatalf("rejoin re-used session ID %d; want a successor incarnation", orig)
	}
	if !cur.Active() {
		t.Fatal("rejoined session not active")
	}
	r, ok := cur.Rate()
	if !ok || !r.Equal(rate.Mbps(10)) {
		t.Fatalf("rejoined rate = %v (ok=%v), want 10mbps", r, ok)
	}
}

// TestDoubleJoinIsChange: a Join of a session that is already joined changes
// its demand (internal/control). It used to mint a successor and leave the
// first incarnation active, so after the user's Leave an orphan incarnation
// still held bandwidth.
func TestDoubleJoinIsChange(t *testing.T) {
	g, ha, hb := buildLine(rate.Mbps(40))
	eng := sim.New()
	n := New(g, eng, DefaultConfig())
	path, err := n.HostPath(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := n.NewSession(ha, hb, path)
	n.ScheduleJoin(s, 0, rate.Mbps(10))
	n.Run()
	n.ScheduleJoin(s, eng.Now()+time.Millisecond, rate.Mbps(20))
	n.Run()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if active, _ := n.Oracle(); len(active) != 1 {
		t.Fatalf("%d active incarnations after the second Join, want 1", len(active))
	}
	if r, ok := s.Rate(); !ok || !r.Equal(rate.Mbps(20)) {
		t.Fatalf("rate %v (%t) after the second Join, want its 20 Mbps demand", r, ok)
	}
	n.ScheduleLeave(s, eng.Now()+time.Millisecond)
	n.Run()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if active, _ := n.Oracle(); len(active) != 0 {
		t.Fatalf("%d incarnations still active after the Leave", len(active))
	}
}
