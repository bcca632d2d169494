package network

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"bneck/internal/core"
	"bneck/internal/graph"
	"bneck/internal/rate"
	"bneck/internal/sim"
	"bneck/internal/topology"
)

// buildLine returns a host–r1–r2–host graph with the middle link capacity c.
func buildLine(c rate.Rate) (*graph.Graph, graph.NodeID, graph.NodeID) {
	g := graph.New()
	r1 := g.AddRouter("r1")
	r2 := g.AddRouter("r2")
	ha := g.AddHost("ha")
	hb := g.AddHost("hb")
	g.Connect(ha, r1, rate.Mbps(100), time.Microsecond)
	g.Connect(r1, r2, c, time.Microsecond)
	g.Connect(r2, hb, rate.Mbps(100), time.Microsecond)
	return g, ha, hb
}

func TestSingleSessionEndToEnd(t *testing.T) {
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
	n.ScheduleJoin(s, 0, rate.Inf)
	q := n.Run()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Rate(); !got.Equal(rate.Mbps(40)) {
		t.Fatalf("rate = %v", got)
	}
	if q <= 0 {
		t.Fatalf("quiescence time = %v", q)
	}
	if n.Stats().Total() == 0 {
		t.Fatalf("no packets counted")
	}
}

func TestSessionsOnSharedAccessLink(t *testing.T) {
	// Two sessions from the same source host: the generalized access-link
	// handling (RouterLink on the host→router link) must split its 100 Mbps.
	g := graph.New()
	r1 := g.AddRouter("r1")
	r2 := g.AddRouter("r2")
	ha := g.AddHost("ha")
	hb := g.AddHost("hb")
	hc := g.AddHost("hc")
	g.Connect(ha, r1, rate.Mbps(100), time.Microsecond)
	g.Connect(r1, r2, rate.Mbps(500), time.Microsecond)
	g.Connect(r2, hb, rate.Mbps(100), time.Microsecond)
	g.Connect(r2, hc, rate.Mbps(100), time.Microsecond)
	eng := sim.New()
	n := New(g, eng, DefaultConfig())
	res := graph.NewResolver(g, 8)
	p1, _ := res.HostPath(ha, hb)
	p2, _ := res.HostPath(ha, hc)
	s1, _ := n.NewSession(ha, hb, p1)
	s2, _ := n.NewSession(ha, hc, p2)
	n.ScheduleJoin(s1, 0, rate.Inf)
	n.ScheduleJoin(s2, 0, rate.Inf)
	n.Run()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	want := rate.Mbps(50)
	if got, _ := s1.Rate(); !got.Equal(want) {
		t.Fatalf("s1 rate = %v, want %v", got, want)
	}
	if got, _ := s2.Rate(); !got.Equal(want) {
		t.Fatalf("s2 rate = %v, want %v", got, want)
	}
}

func TestDynamicsJoinLeaveChange(t *testing.T) {
	g, ha, hb := buildLine(rate.Mbps(60))
	// A second pair of hosts sharing the middle link.
	r1 := graph.NodeID(0)
	r2 := graph.NodeID(1)
	hc := g.AddHost("hc")
	hd := g.AddHost("hd")
	g.Connect(hc, r1, rate.Mbps(100), time.Microsecond)
	g.Connect(hd, r2, rate.Mbps(100), time.Microsecond)

	eng := sim.New()
	n := New(g, eng, DefaultConfig())
	res := graph.NewResolver(g, 8)
	p1, _ := res.HostPath(ha, hb)
	p2, _ := res.HostPath(hc, hd)
	s1, _ := n.NewSession(ha, hb, p1)
	s2, _ := n.NewSession(hc, hd, p2)

	n.ScheduleJoin(s1, 0, rate.Inf)
	n.ScheduleJoin(s2, 100*time.Microsecond, rate.Inf)
	n.Run()
	if err := n.Validate(); err != nil {
		t.Fatalf("after joins: %v", err)
	}
	if got, _ := s1.Rate(); !got.Equal(rate.Mbps(30)) {
		t.Fatalf("s1 rate = %v", got)
	}

	// s2 shrinks its demand; s1 should grow.
	n.ScheduleChange(s2, eng.Now()+time.Millisecond, rate.Mbps(10))
	n.Run()
	if err := n.Validate(); err != nil {
		t.Fatalf("after change: %v", err)
	}
	if got, _ := s1.Rate(); !got.Equal(rate.Mbps(50)) {
		t.Fatalf("s1 rate after change = %v", got)
	}

	// s2 leaves; s1 takes the whole middle link.
	n.ScheduleLeave(s2, eng.Now()+time.Millisecond)
	n.Run()
	if err := n.Validate(); err != nil {
		t.Fatalf("after leave: %v", err)
	}
	if got, _ := s1.Rate(); !got.Equal(rate.Mbps(60)) {
		t.Fatalf("s1 rate after leave = %v", got)
	}
}

func TestQuiescenceNoFurtherTraffic(t *testing.T) {
	g, ha, hb := buildLine(rate.Mbps(40))
	eng := sim.New()
	n := New(g, eng, DefaultConfig())
	res := graph.NewResolver(g, 8)
	path, _ := res.HostPath(ha, hb)
	s, _ := n.NewSession(ha, hb, path)
	n.ScheduleJoin(s, 0, rate.Inf)
	n.Run()
	count := n.Stats().Total()
	// Advance virtual time far beyond quiescence: not a single extra
	// protocol packet may appear.
	eng.RunUntil(eng.Now() + time.Second)
	if got := n.Stats().Total(); got != count {
		t.Fatalf("B-Neck generated %d packets after quiescence", got-count)
	}
}

func TestSmallTopologyManySessionsLAN(t *testing.T) {
	testTopologyConvergence(t, topology.LAN, 120, 40)
}

func TestSmallTopologyManySessionsWAN(t *testing.T) {
	testTopologyConvergence(t, topology.WAN, 120, 40)
}

func testTopologyConvergence(t *testing.T, scen topology.Scenario, hosts, sessions int) {
	t.Helper()
	topo, err := topology.Generate(topology.Small, scen, 42)
	if err != nil {
		t.Fatal(err)
	}
	topo.AddHosts(hosts)
	eng := sim.New()
	n := New(topo.Graph, eng, DefaultConfig())
	res := graph.NewResolver(topo.Graph, 128)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < sessions; i++ {
		src, dst := topo.RandomHostPair()
		path, err := res.HostPath(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		s, err := n.NewSession(src, dst, path)
		if err != nil {
			t.Fatal(err)
		}
		// Join within the first millisecond, as in Experiment 1.
		at := time.Duration(rng.Int63n(int64(time.Millisecond)))
		demand := rate.Inf
		if rng.Intn(4) == 0 {
			demand = rate.Mbps(int64(1 + rng.Intn(50)))
		}
		n.ScheduleJoin(s, at, demand)
	}
	q := n.Run()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%v: %d sessions quiescent at %v after %d packets", scen, sessions, q, n.Stats().Total())
}

func TestValidateDetectsMissingRate(t *testing.T) {
	g, ha, hb := buildLine(rate.Mbps(40))
	eng := sim.New()
	n := New(g, eng, DefaultConfig())
	res := graph.NewResolver(g, 8)
	path, _ := res.HostPath(ha, hb)
	s, _ := n.NewSession(ha, hb, path)
	n.ScheduleJoin(s, 0, rate.Inf)
	// Do not run: validation must fail.
	eng.RunUntil(0)
	if err := n.Validate(); err == nil {
		t.Fatalf("Validate passed before convergence")
	}
}

// TestValidateOnLargeChains: on a graph above control.Check's gate, where
// the link-task sweep runs beside the oracle, a quiescent network
// validates, and one stopped mid-cascade — sessions unconverged and link
// tasks unstable at once — fails with the serial order's error: the first
// session, in creation order, not confirmed at its oracle rate.
func TestValidateOnLargeChains(t *testing.T) {
	const chains, routers = 32, 16 // 32 × 17 × 2 = 1088 links
	n, eng, sessions := newChains(t, chains, routers)
	if links := n.g.NumLinks(); links < 512 {
		t.Fatalf("%d links: below the gate", links)
	}
	chainBurst(n, eng, sessions, func(s *Session, at sim.Time) { n.ScheduleJoin(s, at, rate.Inf) })
	if err := n.Validate(); err != nil {
		t.Fatalf("quiescent: %v", err)
	}

	n, eng, sessions = newChains(t, chains, routers)
	start := eng.Now() + time.Millisecond
	for c, s := range sessions {
		n.ScheduleJoin(s, start+time.Duration(c)*time.Microsecond, rate.Inf)
	}
	n.RunUntil(start + 500*time.Microsecond)
	want, err := n.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	var first core.SessionID
	for _, s := range n.Sessions() {
		if r, ok := s.Rate(); s.Active() && (!ok || !r.Equal(want[s.ID]) || !s.Converged()) {
			first = s.ID
			break
		}
	}
	unstable := 0
	for _, l := range n.tasks {
		if !l.Stable() {
			unstable++
		}
	}
	if first == 0 || unstable == 0 {
		t.Fatalf("mid-cascade: first unconverged session %d, %d unstable link tasks; want both", first, unstable)
	}
	err = n.Validate()
	if prefix := fmt.Sprintf("network: session %d ", first); err == nil || !strings.HasPrefix(err.Error(), prefix) {
		t.Fatalf("mid-cascade Validate = %v, want the error of session %d", err, first)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (sim.Time, uint64, map[core.SessionID]rate.Rate) {
		topo, err := topology.Generate(topology.Small, topology.LAN, 5)
		if err != nil {
			t.Fatal(err)
		}
		topo.AddHosts(40)
		eng := sim.New()
		n := New(topo.Graph, eng, DefaultConfig())
		res := graph.NewResolver(topo.Graph, 64)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 30; i++ {
			src, dst := topo.RandomHostPair()
			path, err := res.HostPath(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			s, _ := n.NewSession(src, dst, path)
			n.ScheduleJoin(s, time.Duration(rng.Int63n(int64(time.Millisecond))), rate.Inf)
		}
		q := n.Run()
		if err := n.Validate(); err != nil {
			t.Fatal(err)
		}
		rates := make(map[core.SessionID]rate.Rate)
		for _, s := range n.Sessions() {
			r, _ := s.Rate()
			rates[s.ID] = r
		}
		return q, n.Stats().Total(), rates
	}
	q1, p1, r1 := run()
	q2, p2, r2 := run()
	if q1 != q2 || p1 != p2 {
		t.Fatalf("nondeterministic run: (%v,%d) vs (%v,%d)", q1, p1, q2, p2)
	}
	for id, r := range r1 {
		if !r.Equal(r2[id]) {
			t.Fatalf("nondeterministic rate for session %d", id)
		}
	}
}

// TestNewSessionRejectsBadInput: a path naming a link the graph does not
// have, or one that does not join the two hosts given, is an error — not a
// panic, and not a session whose reroutes would use the wrong hosts — and
// registers nothing with the controller.
func TestNewSessionRejectsBadInput(t *testing.T) {
	g, ha, hb := buildLine(rate.Mbps(40))
	hc := g.AddHost("hc")
	g.Connect(hc, 0, rate.Mbps(100), time.Microsecond)
	n := New(g, sim.New(), DefaultConfig())
	path, err := n.HostPath(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	unknown := append(append(graph.Path(nil), path[:2]...), graph.LinkID(g.NumLinks()+7))
	for _, tc := range []struct {
		name     string
		src, dst graph.NodeID
		path     graph.Path
	}{
		{"unknown link", ha, hb, unknown},
		{"negative link", ha, hb, graph.Path{path[0], -3}},
		{"wrong source host", hc, hb, path},
		{"wrong destination host", ha, hc, path},
	} {
		if s, err := n.NewSession(tc.src, tc.dst, tc.path); err == nil {
			t.Errorf("%s: NewSession returned session %d, want an error", tc.name, s.ID)
		}
		if n.ctl.Len() != 0 {
			t.Fatalf("%s: the controller holds %d incarnations after a rejected NewSession", tc.name, n.ctl.Len())
		}
	}
}
