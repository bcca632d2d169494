package control

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"bneck/internal/core"
	"bneck/internal/graph"
	"bneck/internal/rate"
)

// rig is a controller over a small graph whose returned actions, and the
// link reconfigurations a transport makes before SetCapacity, are logged
// one line each, paths by node name.
//
//	ha, hc ─ r1 ─ r2 ─ r4 ─ hb, hd      (top: the shortest route)
//	          └ r3 ─ r5 ┘               (bottom: one hop longer)
type rig struct {
	t    *testing.T
	g    *graph.Graph
	c    *Controller
	node map[string]graph.NodeID
	link map[string][2]graph.LinkID // "a-b" → a→b, b→a
	log  []string
	pkts map[core.SessionID]uint64 // what the packet counter reports
}

func newRig(t *testing.T) *rig {
	r := &rig{t: t, pkts: map[core.SessionID]uint64{}}
	r.g, r.node, r.link = rigGraph()
	r.c = New(r.g, func(id core.SessionID) uint64 { return r.pkts[id] })
	return r
}

// rigGraph is the rig's graph, every link duplex at 100 Mb/s.
func rigGraph() (*graph.Graph, map[string]graph.NodeID, map[string][2]graph.LinkID) {
	return buildGraph([]string{"r1", "r2", "r3", "r4", "r5"}, []string{"ha", "hb", "hc", "hd"},
		[]string{"ha-r1", "hc-r1", "r1-r2", "r2-r4", "r1-r3", "r3-r5", "r5-r4", "r4-hb", "r4-hd"})
}

// buildGraph adds the routers, then the hosts, then one duplex 100 Mb/s link
// per "a-b" name, in order, and returns the nodes and links by name.
func buildGraph(routers, hosts, links []string) (*graph.Graph, map[string]graph.NodeID, map[string][2]graph.LinkID) {
	g, node, link := graph.New(), map[string]graph.NodeID{}, map[string][2]graph.LinkID{}
	for _, name := range routers {
		node[name] = g.AddRouter(name)
	}
	for _, name := range hosts {
		node[name] = g.AddHost(name)
	}
	for _, l := range links {
		a, b, _ := strings.Cut(l, "-")
		ab, ba := g.Connect(node[a], node[b], rate.Mbps(100), time.Microsecond)
		link[l] = [2]graph.LinkID{ab, ba}
	}
	return g, node, link
}

func (r *rig) route(p graph.Path) string {
	names := []string{r.g.Node(r.g.Link(p[0]).From).Name}
	for _, l := range p {
		names = append(names, r.g.Node(r.g.Link(l).To).Name)
	}
	return strings.Join(names, "-")
}

func mbps(d rate.Rate) string { return fmt.Sprint(d.Float64() / 1e6) }

// do logs an operation's actions; a topology operation must not fail.
func (r *rig) do(acts []Action, err ...error) {
	r.t.Helper()
	if len(err) > 0 && err[0] != nil {
		r.t.Fatal(err[0])
	}
	for _, a := range acts {
		switch a.Kind {
		case Start:
			r.log = append(r.log, fmt.Sprintf("start %d %s %s", a.ID, r.route(a.Path), mbps(a.Demand)))
		case Leave:
			r.log = append(r.log, fmt.Sprintf("leave %d", a.ID))
		case Change:
			r.log = append(r.log, fmt.Sprintf("change %d %s", a.ID, mbps(a.Demand)))
		}
	}
}

// setCapacity is a transport's capacity change: each link's task first,
// then the controller.
func (r *rig) setCapacity(c rate.Rate, links []graph.LinkID) {
	r.t.Helper()
	for _, l := range links {
		r.log = append(r.log, fmt.Sprintf("capacity %s %s", r.route(graph.Path{l}), mbps(c)))
	}
	r.do(r.c.SetCapacity(c, links))
}

// session registers an idle session between two hosts on its shortest path.
func (r *rig) session(src, dst string) core.SessionID {
	p, err := r.c.HostPath(r.node[src], r.node[dst])
	if err != nil {
		r.t.Fatal(err)
	}
	return r.c.Register(r.node[src], r.node[dst], p)
}

// duplex lists both directions of the named links.
func (r *rig) duplex(names ...string) []graph.LinkID {
	var out []graph.LinkID
	for _, n := range names {
		out = append(out, r.link[n][0], r.link[n][1])
	}
	return out
}

// expect checks the lines logged since the last expect.
func (r *rig) expect(calls ...string) {
	r.t.Helper()
	if !slices.Equal(r.log, calls) {
		r.t.Fatalf("actions\n  %q\nwant\n  %q", r.log, calls)
	}
	r.log = nil
}

func (r *rig) state(id core.SessionID, want State) {
	r.t.Helper()
	if got := r.c.State(id); got != want {
		r.t.Fatalf("session %d in state %d, want %d", id, got, want)
	}
}

const top, bottom = "ha-r1-r2-r4-hb", "ha-r1-r3-r5-r4-hb"

// TestSessionTransitions walks Join, Leave and Change from each state.
// User-level double events dissolve; a Join of a joined session is a Change;
// a (re)join gets a fresh ID exactly when the incarnation carried a Join.
func TestSessionTransitions(t *testing.T) {
	r := newRig(t)
	a := r.session("ha", "hb")

	// Idle, never joined: Leave and Change dissolve, Join starts the ID.
	r.do(r.c.Leave(a))
	r.do(r.c.Change(a, rate.Mbps(5)))
	r.expect()
	r.do(r.c.Join(a, rate.Mbps(10)))
	r.expect("start 1 " + top + " 10")
	r.state(a, Active)

	// Active: Change and a second Join both change the demand.
	r.do(r.c.Change(a, rate.Mbps(15)))
	r.do(r.c.Join(a, rate.Mbps(20)))
	r.expect("change 1 15", "change 1 20")
	if !r.c.Active(a) || !r.c.incs[a-1].s.demand.Equal(rate.Mbps(20)) {
		t.Fatalf("active %t, demand %v after the second Join", r.c.Active(a), r.c.incs[a-1].s.demand)
	}

	// Active → Idle; a double Leave and a Change after Leave dissolve.
	r.do(r.c.Leave(a))
	r.do(r.c.Leave(a))
	r.do(r.c.Change(a, rate.Mbps(1)))
	r.expect("leave 1")
	r.state(a, Idle)
	if !r.c.Departed(a) || r.c.Active(a) {
		t.Fatal("the left incarnation is not departed, or still active")
	}

	// The rejoin carries a fresh ID; the session keeps one identity.
	r.do(r.c.Join(a, rate.Mbps(30)))
	r.expect("start 2 " + top + " 30")
	if r.c.Current(a) != 2 || r.c.Current(2) != 2 || r.c.Departed(2) {
		t.Fatalf("current %d/%d, departed %t", r.c.Current(a), r.c.Current(2), r.c.Departed(2))
	}

	// Active → Stranded by a failure; Join and Change only set the demand it
	// rejoins with; Leave takes it off the strand list.
	r.do(r.c.Fail(r.duplex("ha-r1")))
	r.expect("leave 2")
	r.state(a, Stranded)
	r.do(r.c.Join(a, rate.Mbps(40)))
	r.do(r.c.Change(a, rate.Mbps(45)))
	r.expect()
	if !r.c.incs[a-1].s.demand.Equal(rate.Mbps(45)) || r.c.Stranded() != 1 {
		t.Fatalf("demand %v, %d stranded", r.c.incs[a-1].s.demand, r.c.Stranded())
	}
	r.do(r.c.Leave(a))
	r.state(a, Idle)
	r.do(r.c.Restore(r.duplex("ha-r1")))
	r.expect()
	if r.c.Stranded() != 0 {
		t.Fatalf("%d stranded after the Leave", r.c.Stranded())
	}
}

// TestJoinRoutesAroundFailures: a Join whose path broke while the session
// was idle reroutes (a never-joined incarnation keeps its ID) or strands
// without a call; a stranded session that never joined and leaves is not
// departed, so its next Join still keeps the ID.
func TestJoinRoutesAroundFailures(t *testing.T) {
	r := newRig(t)
	a, c := r.session("ha", "hb"), r.session("hc", "hd")
	r.do(r.c.Fail(r.duplex("r1-r2")))
	r.do(r.c.Join(a, rate.Inf))
	r.expect("start 1 " + bottom + " +Inf")
	if r.c.Migrations() != 0 {
		t.Fatal("a Join-time reroute counted as a migration")
	}

	r.do(r.c.Fail(r.duplex("hc-r1")))
	r.do(r.c.Join(c, rate.Mbps(3)))
	r.expect()
	r.state(c, Stranded)
	r.do(r.c.Leave(c))
	r.do(r.c.Restore(r.duplex("hc-r1")))
	r.expect()
	if r.c.Departed(c) {
		t.Fatal("a session that never joined departed")
	}
	r.do(r.c.Join(c, rate.Mbps(4)))
	r.expect("start 2 hc-r1-r3-r5-r4-hd 4")
}

// TestFailSweepsInIncarnationOrder: a failure moves the active sessions in
// incarnation-ID (creation) order, not in the order the sessions were
// registered, and every move is a Leave, then a Start on a fresh ID.
func TestFailSweepsInIncarnationOrder(t *testing.T) {
	r := newRig(t)
	bot := graph.Path{r.link["ha-r1"][0], r.link["r1-r3"][0], r.link["r3-r5"][0], r.link["r5-r4"][0], r.link["r4-hb"][0]}
	a := r.c.Register(r.node["ha"], r.node["hb"], bot) // a user path off the shortest
	b := r.session("hc", "hd")
	r.do(r.c.Join(a, rate.Inf))
	r.do(r.c.Join(b, rate.Inf))
	r.log = nil

	// Only a crosses r3-r5: it moves to the top as incarnation 3.
	r.do(r.c.Fail(r.duplex("r3-r5")))
	r.expect("leave 1", "start 3 "+top+" +Inf")
	r.do(r.c.Restore(r.duplex("r3-r5")))
	r.expect()

	// Both cross r1-r2 now; b's incarnation 2 precedes a's 3.
	r.do(r.c.Fail(r.duplex("r1-r2")))
	r.expect("leave 2", "start 4 hc-r1-r3-r5-r4-hd +Inf", "leave 3", "start 5 "+bottom+" +Inf")
	if r.c.Migrations() != 3 || r.c.Len() != 5 {
		t.Fatalf("%d migrations, %d incarnations", r.c.Migrations(), r.c.Len())
	}
}

// TestReadmissionInStrandOrder: a restore readmits the stranded sessions in
// the order they stranded, not in creation order; the one that carried a
// Join starts a fresh ID, the one that never did keeps its own.
func TestReadmissionInStrandOrder(t *testing.T) {
	r := newRig(t)
	a, b := r.session("ha", "hb"), r.session("hc", "hb")
	r.do(r.c.Join(b, rate.Mbps(7)))
	r.log = nil
	r.do(r.c.Fail(r.duplex("r4-hb")))
	r.do(r.c.Join(a, rate.Mbps(8)))
	r.expect("leave 2")
	r.state(a, Stranded)
	r.state(b, Stranded)
	r.do(r.c.Restore(r.duplex("r4-hb")))
	r.expect("start 3 hc-r1-r2-r4-hb 7", "start 1 "+top+" 8")
	if r.c.Stranded() != 0 || r.c.Migrations() != 0 {
		t.Fatalf("%d stranded, %d migrations", r.c.Stranded(), r.c.Migrations())
	}
}

// TestCapacityAndReoptimization: a capacity change reconfigures each link;
// under ReoptimizeOnRestore a restore moves sessions back onto shorter
// paths past the hysteresis, and an upgrade waives it.
func TestCapacityAndReoptimization(t *testing.T) {
	r := newRig(t)
	a := r.session("ha", "hb")
	r.do(r.c.Join(a, rate.Inf))
	r.setCapacity(rate.Mbps(400), r.duplex("r1-r2"))
	r.expect("start 1 "+top+" +Inf", "capacity r1-r2 400", "capacity r2-r1 400")

	r.c.Policy = Policy{Kind: ReoptimizeOnRestore, Stretch: 2}
	r.do(r.c.Fail(r.duplex("r1-r2")))
	r.do(r.c.Restore(r.duplex("r1-r2")))
	r.expect("leave 1", "start 2 "+bottom+" +Inf") // 5 hops ≤ 2 × 4: it stays
	r.setCapacity(rate.Mbps(800), r.duplex("r2-r4"))
	r.expect("capacity r2-r4 800", "capacity r4-r2 800", "leave 2", "start 3 "+top+" +Inf")

	r.c.Policy.Stretch = 1
	r.do(r.c.Fail(r.duplex("r1-r2")))
	r.do(r.c.Restore(r.duplex("r1-r2")))
	r.expect("leave 3", "start 4 "+bottom+" +Inf", "leave 4", "start 5 "+top+" +Inf")
	if r.c.Migrations() != 2 || r.c.Reoptimizations() != 2 {
		t.Fatalf("%d migrations, %d reoptimizations", r.c.Migrations(), r.c.Reoptimizations())
	}
}

// TestReconfigurationSpans: a forced Leave counts the departing
// incarnation's packets from the Leave on, a topology-driven Start all of
// the new incarnation's, up to the next quiescence; an incarnation already
// counted (a successor torn down in the same epoch) is not counted twice,
// and user churn is never counted.
func TestReconfigurationSpans(t *testing.T) {
	r := newRig(t)
	a, b := r.session("ha", "hb"), r.session("hc", "hd")
	r.do(r.c.Join(a, rate.Inf))
	r.do(r.c.Join(b, rate.Inf))
	r.pkts[1], r.pkts[2] = 100, 100
	r.c.Quiesced()

	// 1 and 2 move to the bottom as 3 and 4, their Leave cascades cost 5
	// and 6 packets, and 3 sends 10 before the bottom fails too: 3 and 4
	// strand inside their join spans, and b leaves the strand list.
	r.do(r.c.Fail(r.duplex("r1-r2")))
	r.pkts[1] += 5
	r.pkts[2] += 6
	r.pkts[3] = 10
	r.do(r.c.Fail(r.duplex("r3-r5")))
	r.do(r.c.Leave(b))
	r.pkts[3] += 2
	r.pkts[4] = 9
	r.c.Quiesced()
	// 1: 5, 2: 6, 3: all 12 (one span, not two), 4: all 9.
	if got := r.c.ReconfigPackets(); got != 5+6+12+9 {
		t.Fatalf("reconfiguration packets %d, want %d", got, 5+6+12+9)
	}
	r.pkts[1] += 50 // a straggler after its span closed
	r.do(r.c.Restore(r.duplex("r1-r2")))
	r.do(r.c.Join(b, rate.Inf))
	r.pkts[5], r.pkts[6] = 3, 4 // a's readmission, b's user rejoin
	r.c.Quiesced()
	if got := r.c.ReconfigPackets(); got != 32+3 {
		t.Fatalf("reconfiguration packets %d, want %d", got, 32+3)
	}
}

// TestImpossibleTransitionsPanic: what no call sequence can reach panics
// instead of corrupting the registry.
func TestImpossibleTransitionsPanic(t *testing.T) {
	for name, f := range map[string]func(r *rig, a core.SessionID){
		"start of an active session": func(r *rig, a core.SessionID) {
			r.do(r.c.Join(a, rate.Inf))
			r.c.start(r.c.incs[a-1].s, r.c.Path(a), false)
		},
		"leave of an idle session": func(r *rig, a core.SessionID) { r.c.depart(r.c.incs[a-1]) },
		"leave of a retired incarnation": func(r *rig, a core.SessionID) {
			r.do(r.c.Join(a, rate.Inf))
			r.do(r.c.Leave(a))
			r.do(r.c.Join(a, rate.Inf))
			r.c.depart(r.c.incs[a-1])
		},
		"strand of a stranded session": func(r *rig, a core.SessionID) {
			r.do(r.c.Fail(r.duplex("ha-r1")))
			r.do(r.c.Join(a, rate.Inf))
			r.c.strand(r.c.incs[a-1].s)
		},
		"stranded but not parked": func(r *rig, a core.SessionID) {
			r.c.incs[a-1].s.state = Stranded
			r.do(r.c.Leave(a))
		},
	} {
		t.Run(name, func(t *testing.T) {
			r := newRig(t)
			a := r.session("ha", "hb")
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "control: ") {
					t.Fatalf("no control panic: %q", msg)
				}
			}()
			f(r, a)
		})
	}
}
