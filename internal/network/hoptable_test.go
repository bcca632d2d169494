package network

import (
	"math/rand"
	"strings"
	"testing"
	"time"
	"unsafe"

	"bneck/internal/core"
	"bneck/internal/graph"
	"bneck/internal/rate"
	"bneck/internal/sim"
	"bneck/internal/topology"
)

// checkHops requires s's hop table to name exactly the records the creation
// index holds for s's path: hops[i] serves Path[i].
func checkHops(t *testing.T, n *Network, s *Session) {
	t.Helper()
	if len(n.hops[s.ID]) != len(s.Path) {
		t.Fatalf("session %d: %d hops for a %d-link path", s.ID, len(n.hops[s.ID]), len(s.Path))
	}
	for i, l := range s.Path {
		h := n.hops[s.ID][i]
		if h.rec == nil || h.rec != n.links[l] || core.LinkRef(l) != h.rec.task.Ref() {
			t.Fatalf("session %d hop %d: record %p, link table has %p for link %d", s.ID, i, h.rec, n.links[l], l)
		}
		if h.fwd == nil || h.fwd != n.wires[l] {
			t.Fatalf("session %d hop %d: forward wire is not link %d's", s.ID, i, l)
		}
		if rev := n.g.LinkReverse(l); h.rev == nil || h.rev != n.wires[rev] {
			t.Fatalf("session %d hop %d: reverse wire is not link %d's", s.ID, i, rev)
		}
		if h.rec.port.node != n.g.Link(l).From {
			t.Fatalf("session %d hop %d: task bound to node %d, not its link's From", s.ID, i, h.rec.port.node)
		}
	}
}

// TestHopTableFollowsMigration: a link failure retires the incarnation on
// the failed path and joins a successor; the successor's table names the new
// path's tasks, while the old incarnation keeps its own table, so its Leave —
// in flight when the successor joins — still reaches and clears the old
// path's tasks.
func TestHopTableFollowsMigration(t *testing.T) {
	g, ha, hb, top, bot := buildDiamond()
	n := New(g, sim.New(), DefaultConfig())
	path, err := n.HostPath(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := n.NewSession(ha, hb, path)
	if n.hops[s.ID] != nil {
		t.Fatalf("hop table built before the join (set-up must not pay for it)")
	}
	n.ScheduleJoin(s, 0, rate.Inf)
	n.Run()
	checkHops(t, n, s)
	old := append([]hopRef(nil), n.hops[s.ID]...)
	oldRec := n.links[top[0][0]]
	if oldRec == nil || oldRec.task.Sessions() != 1 {
		t.Fatalf("the session is not on the top route")
	}

	n.ScheduleLinkFail(n.eng.Now()+time.Millisecond, top[0][0], top[0][1])
	n.Run()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	succ := s.Current()
	if succ == s {
		t.Fatalf("no successor")
	}
	checkHops(t, n, succ)
	if n.hops[succ.ID][1].rec != n.links[bot[0][0]] || n.hops[succ.ID][2].rec != n.links[bot[1][0]] {
		t.Fatalf("the successor's table does not name the bottom route")
	}
	// The departed incarnation's table is what it was, and its Leave got
	// through it: the old route's tasks are empty, the shared access
	// links carry only the successor.
	for i, h := range n.hops[s.ID] {
		if h != old[i] {
			t.Fatalf("migration rewrote the departed incarnation's hop %d", i)
		}
	}
	for _, l := range []graph.LinkID{top[0][0], top[1][0]} {
		if k := n.links[l].task.Sessions(); k != 0 {
			t.Fatalf("old route link %d still knows %d sessions", l, k)
		}
	}
	for _, l := range []graph.LinkID{path[0], path[len(path)-1]} {
		if k := n.links[l].task.Sessions(); k != 1 {
			t.Fatalf("access link %d knows %d sessions, want the successor only", l, k)
		}
	}
	if got, _ := s.Rate(); !got.Equal(rate.Mbps(25)) {
		t.Fatalf("post-failure rate %v, want 25 Mbps", got)
	}
}

// TestHopTableSurvivesGrowth: hosts added between runs grow the graph, and
// the next join reallocates the links[]/wires[] index. The records do not
// move, so the tables resolved before the growth stay valid and the sessions
// using them keep converging next to the newcomers.
func TestHopTableSurvivesGrowth(t *testing.T) {
	topo, err := topology.Generate(topology.Small, topology.LAN, 7)
	if err != nil {
		t.Fatal(err)
	}
	n := New(topo.Graph, sim.New(), DefaultConfig())
	rng := rand.New(rand.NewSource(3))
	join := func(hosts []graph.NodeID, k int) []*Session {
		var out []*Session
		for i := 0; i < k; i++ {
			src, dst := hosts[i], hosts[k+rng.Intn(len(hosts)-k)]
			path, err := n.HostPath(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			s, err := n.NewSession(src, dst, path)
			if err != nil {
				t.Fatal(err)
			}
			n.ScheduleJoin(s, n.eng.Now()+time.Duration(rng.Int63n(int64(time.Millisecond))), rate.Inf)
			out = append(out, s)
		}
		return out
	}
	first := join(topo.AddHosts(40), 20)
	n.Run()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	before := make([][]hopRef, len(first))
	for i, s := range first {
		checkHops(t, n, s)
		before[i] = append([]hopRef(nil), n.hops[s.ID]...)
	}
	indexLen := len(n.links)

	second := join(topo.AddHosts(40), 20)
	n.Run()
	if len(n.links) <= indexLen || len(n.wires) != len(n.links) {
		t.Fatalf("the link index did not grow with the graph: %d → %d", indexLen, len(n.links))
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, s := range first {
		checkHops(t, n, s)
		for j, h := range n.hops[s.ID] {
			if h != before[i][j] {
				t.Fatalf("growth moved session %d's hop %d", s.ID, j)
			}
		}
	}
	for _, s := range second {
		checkHops(t, n, s)
	}
	// The old sessions still run over their tables: a demand change on each
	// re-converges the whole network.
	for _, s := range first {
		n.ScheduleChange(s, n.eng.Now()+time.Millisecond, rate.Mbps(int64(1+rng.Intn(20))))
	}
	n.Run()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSetCapacityReachesResolvedWire: a capacity change finds the link's
// records through the creation index — the same task and the same wire the
// hop tables already point at — so the next packet is serialized at the new
// rate and the session re-converges to it.
func TestSetCapacityReachesResolvedWire(t *testing.T) {
	g, ha, hb := buildLine(rate.Mbps(40))
	eng := sim.New()
	n := New(g, eng, DefaultConfig())
	path, _ := n.HostPath(ha, hb)
	s, _ := n.NewSession(ha, hb, path)
	n.ScheduleJoin(s, 0, rate.Inf)
	n.Run()
	mid := path[1]
	w := n.hops[s.ID][1].fwd
	if w != n.wires[mid] || n.hops[s.ID][1].rec != n.links[mid] {
		t.Fatalf("hop table and link index disagree")
	}
	// 512 control bits at 40 Mbps, then at 1 Mbps: arrival = now + tx + prop.
	arrival := func() time.Duration { return w.Depart(eng.Now(), 0) - eng.Now() }
	prop := g.Link(mid).Propagation
	if got, want := arrival(), TxTime(rate.Mbps(40))+prop; got != want {
		t.Fatalf("before: arrival after %v, want %v", got, want)
	}
	n.ScheduleSetCapacity(eng.Now()+time.Millisecond, rate.Mbps(1), mid, g.LinkReverse(mid))
	n.Run()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Rate(); !got.Equal(rate.Mbps(1)) {
		t.Fatalf("rate %v after the cut, want 1 Mbps", got)
	}
	if n.hops[s.ID][1].rec.task.Capacity() != rate.Mbps(1) {
		t.Fatalf("the task the hop table points at kept the old capacity")
	}
	if got, want := arrival(), TxTime(rate.Mbps(1))+prop; got != want {
		t.Fatalf("after: arrival after %v, want %v (the resolved wire kept the old transmission time)", got, want)
	}
}

// TestOneDirectionalLinkRejected: a link without a reverse cannot carry a
// session — the upstream packets have no way back. NewSession says so when
// handed such a path, and a join that would adopt one (the resolver routes
// over whatever is up) stops at the join, not at the first Response.
func TestOneDirectionalLinkRejected(t *testing.T) {
	g := graph.New()
	r1, r2 := g.AddRouter("r1"), g.AddRouter("r2")
	ha, hb := g.AddHost("ha"), g.AddHost("hb")
	g.Connect(ha, r1, rate.Mbps(100), time.Microsecond)
	oneWay := g.ConnectAsym(r1, r2, rate.Mbps(40), time.Microsecond)
	g.Connect(r2, hb, rate.Mbps(100), time.Microsecond)
	n := New(g, sim.New(), DefaultConfig())
	path, err := n.HostPath(ha, hb)
	if err != nil || len(path) != 3 || path[1] != oneWay {
		t.Fatalf("resolver path %v, %v", path, err)
	}
	if _, err := n.NewSession(ha, hb, path); err == nil || !strings.Contains(err.Error(), "has no reverse") {
		t.Fatalf("NewSession over a one-directional link: %v", err)
	}
	if len(n.Sessions()) != 0 {
		t.Fatalf("the rejected session was registered")
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "has no reverse") {
			t.Fatalf("resolving a hop table over a one-directional link: %q", msg)
		}
	}()
	n.resolveHops(path)
}

// TestLinkRecordFootprint bounds what a packet's visit to a one-session
// link reads: the link's record (task, table, first entry, wire) fits three
// cache lines, the 192-byte allocation class, which a 24-byte rate.Rate and
// a table whose rate index waits for its second session leave it in.
func TestLinkRecordFootprint(t *testing.T) {
	if got := unsafe.Sizeof(rate.Rate{}); got != 24 {
		t.Errorf("rate.Rate is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(linkRec{}); got > 192 {
		t.Errorf("linkRec is %d bytes, want at most 192", got)
	}
}

// TestJoinAllocations pins what a join costs: over a fresh k-link path, one
// record per link (task, table with its first session, wire, port), one
// allocation for all the bare wires of the reverse links, and the hop table
// — k + 2 objects, nothing per task beyond its record.
func TestJoinAllocations(t *testing.T) {
	const routers = 16
	const k = routers + 1
	g := graph.New()
	var hosts [][2]graph.NodeID
	addChain := func() {
		src := g.AddHost("src")
		prev := src
		for r := 0; r < routers; r++ {
			next := g.AddRouter("r")
			g.Connect(prev, next, rate.Mbps(100), time.Microsecond)
			prev = next
		}
		dst := g.AddHost("dst")
		g.Connect(prev, dst, rate.Mbps(100), time.Microsecond)
		hosts = append(hosts, [2]graph.NodeID{src, dst})
	}
	const runs = 20
	for i := 0; i < runs+2; i++ {
		addChain()
	}
	n := New(g, sim.New(), DefaultConfig())
	var sessions []*Session
	for _, h := range hosts {
		path, err := n.HostPath(h[0], h[1])
		if err != nil || len(path) != k {
			t.Fatal(path, err)
		}
		s, _ := n.NewSession(h[0], h[1], path)
		sessions = append(sessions, s)
	}
	// The first join sizes the link index; measure from the second.
	n.apply(n.ctl.Join(sessions[0].ID, rate.Inf), nil)
	i := 1
	perJoin := testing.AllocsPerRun(runs, func() {
		n.resolveHops(sessions[i].Path)
		i++
	})
	if want := float64(k + 2); perJoin != want {
		t.Fatalf("resolving a fresh %d-link path allocates %v objects, want %v", k, perJoin, want)
	}
	if again := testing.AllocsPerRun(5, func() { n.resolveHops(sessions[1].Path) }); again != 1 {
		t.Fatalf("resolving a path whose links exist allocates %v objects, want 1 (the table)", again)
	}
}

// TestSteadyStateEmitAllocatesNothing: once a chain's records and the
// delivery pool are warm, a whole change → re-probe → settle cascade — every
// Emit, wire send and delivery of it — allocates nothing.
func TestSteadyStateEmitAllocatesNothing(t *testing.T) {
	g, ha, hb := buildLine(rate.Mbps(40))
	eng := sim.New()
	cfg := DefaultConfig()
	cfg.BinSize = 0 // bins grow with virtual time; everything else is under test
	n := New(g, eng, cfg)
	path, _ := n.HostPath(ha, hb)
	s, _ := n.NewSession(ha, hb, path)
	n.ScheduleJoin(s, 0, rate.Inf)
	n.Run()
	demands := []rate.Rate{rate.Mbps(5), rate.Mbps(9), rate.Inf}
	round := 0
	var packets uint64
	cascade := func() {
		before := n.Stats().Total()
		n.apply(n.ctl.Change(s.ID, demands[round%len(demands)]), nil)
		round++
		eng.Run()
		packets += n.Stats().Total() - before
	}
	for i := 0; i < 2*len(demands); i++ {
		cascade() // warm: the event heap, the delivery pool, both rate sets
	}
	packets = 0
	if allocs := testing.AllocsPerRun(30, cascade); allocs != 0 {
		t.Fatalf("a steady-state cascade allocates %v objects, want 0", allocs)
	}
	if packets == 0 {
		t.Fatalf("the cascades sent no packets")
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}
