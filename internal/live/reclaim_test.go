package live

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"bneck/internal/graph"
	"bneck/internal/rate"
	"bneck/internal/topology"
)

// churnGrid builds a 2x2 router grid with redundant paths, so failing a link
// always leaves a reroute.
func churnGrid(t *testing.T) (*graph.Graph, []graph.Path, [4]graph.LinkID) {
	t.Helper()
	g := graph.New()
	a := g.AddRouter("a")
	b := g.AddRouter("b")
	c := g.AddRouter("c")
	d := g.AddRouter("d")
	ab, ba := g.Connect(a, b, rate.Mbps(100), time.Microsecond)
	g.Connect(b, d, rate.Mbps(100), time.Microsecond)
	g.Connect(a, c, rate.Mbps(100), time.Microsecond)
	cd, dc := g.Connect(c, d, rate.Mbps(100), time.Microsecond)
	res := graph.NewResolver(g, 16)
	var paths []graph.Path
	for i := 0; i < 6; i++ {
		hs := g.AddHost("hs")
		hd := g.AddHost("hd")
		g.Connect(hs, a, rate.Mbps(100), time.Microsecond)
		g.Connect(hd, d, rate.Mbps(100), time.Microsecond)
		p, err := graph.NewResolver(g, 16).HostPath(hs, hd)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	_ = res
	return g, paths, [4]graph.LinkID{ab, ba, cd, dc}
}

// TestReclaimRetiredIncarnations is the reclamation satellite's contract:
// repeated churn — migrations, leaves, rejoins — must not accumulate actor
// goroutines; after every quiescence the incarnation count equals the live
// session count and goroutines return to baseline.
func TestReclaimRetiredIncarnations(t *testing.T) {
	g, paths, links := churnGrid(t)
	rt := New(g)
	defer rt.Close()
	var sessions []*Session
	for _, p := range paths {
		s, err := rt.NewSession(p)
		if err != nil {
			t.Fatal(err)
		}
		s.Join(rate.Mbps(40))
		sessions = append(sessions, s)
	}
	rt.WaitQuiescent()
	if err := rt.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := rt.Incarnations(); got != len(sessions) {
		t.Fatalf("incarnations = %d, want %d", got, len(sessions))
	}
	baseline := runtime.NumGoroutine()

	migratedBefore := rt.Migrations()
	const rounds = 8
	for i := 0; i < rounds; i++ {
		// Fail one duplex pair (crossing sessions migrate), bounce a session
		// through leave+rejoin, then restore.
		rt.FailLinks(links[0], links[1])
		sessions[i%len(sessions)].Leave()
		rt.WaitQuiescent()
		rt.RestoreLinks(links[0], links[1])
		sessions[i%len(sessions)].Join(rate.Mbps(25))
		rt.WaitQuiescent()
		if err := rt.Validate(); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if rt.Migrations() == migratedBefore {
		t.Fatal("churn caused no migrations; the test exercises nothing")
	}
	if got := rt.Incarnations(); got != len(sessions) {
		t.Fatalf("incarnations after churn = %d, want %d (retired ones reclaimed)", got, len(sessions))
	}
	awaitGoroutines(t, baseline) // actors own no goroutine, retired or not

	// Rates still correct for the rejoined population.
	for i, s := range sessions {
		if r, ok := s.Rate(); !ok || r.Sign() <= 0 {
			t.Fatalf("session %d rate %v (%t) after churn", i, r, ok)
		}
	}
}

// TestLinkPacketCountersParity: the live runtime reports per-link packet
// counters in the same shape as the simulator transport (metrics.LinkCount,
// same field names), counting the same crossing rule — every packet sent
// across a directed link, intra-host hand-offs excluded.
func TestLinkPacketCountersParity(t *testing.T) {
	g, paths, _ := churnGrid(t)
	rt := New(g)
	defer rt.Close()
	var total uint64
	s, err := rt.NewSession(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	s.Join(rate.Inf)
	rt.WaitQuiescent()
	counts := rt.LinkPackets()
	if len(counts) == 0 {
		t.Fatal("no per-link counters after a join cascade")
	}
	seen := make(map[graph.LinkID]bool)
	for _, lc := range counts {
		if lc.Packets == 0 {
			t.Fatalf("link %d reported with zero packets", lc.Link)
		}
		if seen[lc.Link] {
			t.Fatalf("link %d reported twice", lc.Link)
		}
		seen[lc.Link] = true
		total += lc.Packets
	}
	// The join cascade crosses every on-path link in both directions.
	for _, l := range paths[0] {
		if !seen[l] {
			t.Fatalf("on-path link %d missing from the report", l)
		}
		if rev := g.Link(l).Reverse; rev != graph.NoLink && !seen[rev] {
			t.Fatalf("reverse link %d missing from the report", rev)
		}
	}
	if total == 0 {
		t.Fatal("zero packets counted")
	}
}

// settledGoroutines samples runtime.NumGoroutine until it stops moving:
// actors stopped by an earlier test's Close exit asynchronously.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for same := 0; same < 3; {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// checkQuiescentFootprint asserts what a quiescent runtime may hold: no
// goroutine past the pre-traffic baseline (workers end with their cascades),
// one incarnation per live session, and every mailbox empty with neither
// buffer past mailboxKeep. Call only right after WaitQuiescent.
func checkQuiescentFootprint(t *testing.T, rt *Runtime, base int, all []*Session) {
	t.Helper()
	live := 0
	for _, s := range all {
		if s.Active() {
			live++
		}
	}
	if got := rt.Incarnations(); got != live {
		t.Errorf("%d incarnations, %d live sessions", got, live)
	}
	for i := range rt.lnks {
		for _, la := range rt.lnks[i].actors {
			checkMailboxBounded(t, "link actor", la.a)
		}
	}
	for i := range rt.incs {
		for _, inc := range rt.incs[i].m {
			checkMailboxBounded(t, "source actor", inc.src)
			checkMailboxBounded(t, "destination actor", inc.dst)
		}
	}
	awaitGoroutines(t, base)
}

// awaitGoroutines fails the test unless runtime.NumGoroutine() falls to max
// shortly: a worker's last decrement, which is what WaitQuiescent waits for,
// precedes its exit by a few instructions.
func awaitGoroutines(t *testing.T, max int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > max {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after quiescence, want at most %d", runtime.NumGoroutine(), max)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBoundedGrowthUnderChurn is the runtime's bounded-growth contract
// (ROADMAP item 3.4): through a churn soak with failures, restores, leaves,
// rejoins and demand changes, every quiescence finds the runtime at its
// footprint (checkQuiescentFootprint) — actors own no goroutine, so the
// count returns to the pre-traffic baseline every time — and at the end a
// link actor exists for exactly the directed links on the path of some
// incarnation that was ever joined. Resolving hop tables at Join creates the
// link actors in the caller instead of lazily in a handler, and must not
// create one that a Join cascade would not have reached.
func TestBoundedGrowthUnderChurn(t *testing.T) {
	topo, err := topology.Generate(topology.Small, topology.LAN, 29)
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 48
	hosts := topo.AddHosts(2 * sessions)
	g := topo.Graph
	base := settledGoroutines()
	rt := New(g)
	defer rt.Close()

	rng := rand.New(rand.NewSource(7))
	all := make([]*Session, sessions)
	for i := range all {
		p, err := rt.HostPath(hosts[i], hosts[sessions+rng.Intn(sessions)])
		if err != nil {
			t.Fatal(err)
		}
		if all[i], err = rt.NewSession(p); err != nil {
			t.Fatal(err)
		}
	}
	// joined collects every directed link on the path of an incarnation that
	// has been joined. All API calls come from this goroutine, so sampling
	// the active sessions' paths after each call that can join — Join, and
	// the topology events that migrate or readmit — misses none.
	joined := make(map[graph.LinkID]bool)
	record := func() {
		for _, s := range all {
			if s.Active() {
				for _, l := range s.Path() {
					joined[l] = true
				}
			}
		}
	}
	demand := func() rate.Rate {
		if rng.Intn(3) == 0 {
			return rate.Inf
		}
		return rate.Mbps(int64(1 + rng.Intn(80)))
	}
	for _, s := range all[:sessions*3/4] { // the rest join during the soak
		s.Join(demand())
	}
	record()
	rt.WaitQuiescent()
	checkQuiescentFootprint(t, rt, base, all)

	for round := 0; round < 12; round++ {
		// Fail a router link under some routed session, churn while the
		// migrations run, restore, churn again.
		var victim graph.LinkID = graph.NoLink
		for _, i := range rng.Perm(sessions) {
			if s := all[i]; s.Active() && len(s.Path()) >= 3 {
				victim = s.Path()[1+rng.Intn(len(s.Path())-2)]
				break
			}
		}
		if victim == graph.NoLink {
			t.Fatal("no routed session with an interior link")
		}
		rev := g.LinkReverse(victim)
		rt.FailLinks(victim, rev)
		record()
		for k := 0; k < 8; k++ {
			s := all[rng.Intn(sessions)]
			switch {
			case !s.Active() && !s.Stranded():
				s.Join(demand())
				record()
			case rng.Intn(2) == 0:
				s.Leave()
			default:
				s.Change(demand())
			}
		}
		rt.WaitQuiescent()
		checkQuiescentFootprint(t, rt, base, all)
		rt.RestoreLinks(victim, rev)
		record()
		rt.WaitQuiescent()
		checkQuiescentFootprint(t, rt, base, all)
		if err := rt.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if rt.Migrations() == 0 {
		t.Fatal("the soak migrated nothing; the test exercises too little")
	}

	linkActors := 0
	for i := range rt.lnks {
		for l := range rt.lnks[i].actors {
			linkActors++
			if !joined[l] {
				t.Errorf("link %d has an actor but is on no joined incarnation's path", l)
			}
		}
	}
	if linkActors != len(joined) {
		t.Errorf("%d link actors, %d directed links on joined paths", linkActors, len(joined))
	}
}
