package control

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"bneck/internal/core"
	"bneck/internal/graph"
	"bneck/internal/policy"
	"bneck/internal/rate"
)

// rig is a controller over a small graph and a recording fake transport:
// every call the controller makes is logged as one line, paths by node name.
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
	pkts map[core.SessionID]uint64 // what Packets reports
}

func newRig(t *testing.T) *rig {
	r := &rig{t: t, g: graph.New(), node: map[string]graph.NodeID{},
		link: map[string][2]graph.LinkID{}, pkts: map[core.SessionID]uint64{}}
	for _, name := range []string{"r1", "r2", "r3", "r4", "r5"} {
		r.node[name] = r.g.AddRouter(name)
	}
	for _, name := range []string{"ha", "hb", "hc", "hd"} {
		r.node[name] = r.g.AddHost(name)
	}
	for _, l := range []string{"ha-r1", "hc-r1", "r1-r2", "r2-r4", "r1-r3", "r3-r5", "r5-r4", "r4-hb", "r4-hd"} {
		a, b, _ := strings.Cut(l, "-")
		ab, ba := r.g.Connect(r.node[a], r.node[b], rate.Mbps(100), time.Microsecond)
		r.link[l] = [2]graph.LinkID{ab, ba}
	}
	r.c = New(r.g, r)
	return r
}

func (r *rig) route(p graph.Path) string {
	names := []string{r.g.Node(r.g.Link(p[0]).From).Name}
	for _, l := range p {
		names = append(names, r.g.Node(r.g.Link(l).To).Name)
	}
	return strings.Join(names, "-")
}

func mbps(d rate.Rate) string { return fmt.Sprint(d.Float64() / 1e6) }

func (r *rig) Start(id core.SessionID, path graph.Path, demand rate.Rate) {
	r.log = append(r.log, fmt.Sprintf("start %d %s %s", id, r.route(path), mbps(demand)))
}
func (r *rig) Leave(id core.SessionID) { r.log = append(r.log, fmt.Sprintf("leave %d", id)) }
func (r *rig) Change(id core.SessionID, demand rate.Rate) {
	r.log = append(r.log, fmt.Sprintf("change %d %s", id, mbps(demand)))
}
func (r *rig) SetCapacity(l graph.LinkID, c rate.Rate) {
	r.log = append(r.log, fmt.Sprintf("capacity %s %s", r.route(graph.Path{l}), mbps(c)))
}
func (r *rig) Packets(id core.SessionID) uint64 { return r.pkts[id] }

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

// expect checks the calls logged since the last expect.
func (r *rig) expect(calls ...string) {
	r.t.Helper()
	if !slices.Equal(r.log, calls) {
		r.t.Fatalf("transport calls\n  %q\nwant\n  %q", r.log, calls)
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
	r.c.Leave(a)
	r.c.Change(a, rate.Mbps(5))
	r.expect()
	r.c.Join(a, rate.Mbps(10))
	r.expect("start 1 " + top + " 10")
	r.state(a, Active)

	// Active: Change and a second Join both change the demand.
	r.c.Change(a, rate.Mbps(15))
	r.c.Join(a, rate.Mbps(20))
	r.expect("change 1 15", "change 1 20")
	if !r.c.Active(a) || !r.c.incs[a-1].s.demand.Equal(rate.Mbps(20)) {
		t.Fatalf("active %t, demand %v after the second Join", r.c.Active(a), r.c.incs[a-1].s.demand)
	}

	// Active → Idle; a double Leave and a Change after Leave dissolve.
	r.c.Leave(a)
	r.c.Leave(a)
	r.c.Change(a, rate.Mbps(1))
	r.expect("leave 1")
	r.state(a, Idle)
	if !r.c.Departed(a) || r.c.Active(a) {
		t.Fatal("the left incarnation is not departed, or still active")
	}

	// The rejoin carries a fresh ID; the session keeps one identity.
	r.c.Join(a, rate.Mbps(30))
	r.expect("start 2 " + top + " 30")
	if r.c.Current(a) != 2 || r.c.Current(2) != 2 || r.c.Departed(2) {
		t.Fatalf("current %d/%d, departed %t", r.c.Current(a), r.c.Current(2), r.c.Departed(2))
	}

	// Active → Stranded by a failure; Join and Change only set the demand it
	// rejoins with; Leave takes it off the strand list.
	r.c.Fail(r.duplex("ha-r1"))
	r.expect("leave 2")
	r.state(a, Stranded)
	r.c.Join(a, rate.Mbps(40))
	r.c.Change(a, rate.Mbps(45))
	r.expect()
	if !r.c.incs[a-1].s.demand.Equal(rate.Mbps(45)) || r.c.Stranded() != 1 {
		t.Fatalf("demand %v, %d stranded", r.c.incs[a-1].s.demand, r.c.Stranded())
	}
	r.c.Leave(a)
	r.state(a, Idle)
	r.c.Restore(r.duplex("ha-r1"))
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
	r.c.Fail(r.duplex("r1-r2"))
	r.c.Join(a, rate.Inf)
	r.expect("start 1 " + bottom + " +Inf")
	if r.c.Migrations() != 0 {
		t.Fatal("a Join-time reroute counted as a migration")
	}

	r.c.Fail(r.duplex("hc-r1"))
	r.c.Join(c, rate.Mbps(3))
	r.expect()
	r.state(c, Stranded)
	r.c.Leave(c)
	r.c.Restore(r.duplex("hc-r1"))
	r.expect()
	if r.c.Departed(c) {
		t.Fatal("a session that never joined departed")
	}
	r.c.Join(c, rate.Mbps(4))
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
	r.c.Join(a, rate.Inf)
	r.c.Join(b, rate.Inf)
	r.log = nil

	// Only a crosses r3-r5: it moves to the top as incarnation 3.
	r.c.Fail(r.duplex("r3-r5"))
	r.expect("leave 1", "start 3 "+top+" +Inf")
	r.c.Restore(r.duplex("r3-r5"))
	r.expect()

	// Both cross r1-r2 now; b's incarnation 2 precedes a's 3.
	r.c.Fail(r.duplex("r1-r2"))
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
	r.c.Join(b, rate.Mbps(7))
	r.log = nil
	r.c.Fail(r.duplex("r4-hb"))
	r.c.Join(a, rate.Mbps(8))
	r.expect("leave 2")
	r.state(a, Stranded)
	r.state(b, Stranded)
	r.c.Restore(r.duplex("r4-hb"))
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
	r.c.Join(a, rate.Inf)
	r.c.SetCapacity(rate.Mbps(400), r.duplex("r1-r2"))
	r.expect("start 1 "+top+" +Inf", "capacity r1-r2 400", "capacity r2-r1 400")

	r.c.Policy = policy.Config{Kind: policy.ReoptimizeOnRestore, Stretch: 2}
	r.c.Fail(r.duplex("r1-r2"))
	r.c.Restore(r.duplex("r1-r2"))
	r.expect("leave 1", "start 2 "+bottom+" +Inf") // 5 hops ≤ 2 × 4: it stays
	r.c.SetCapacity(rate.Mbps(800), r.duplex("r2-r4"))
	r.expect("capacity r2-r4 800", "capacity r4-r2 800", "leave 2", "start 3 "+top+" +Inf")

	r.c.Policy.Stretch = 1
	r.c.Fail(r.duplex("r1-r2"))
	r.c.Restore(r.duplex("r1-r2"))
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
	r.c.Join(a, rate.Inf)
	r.c.Join(b, rate.Inf)
	r.pkts[1], r.pkts[2] = 100, 100
	r.c.Quiesced()

	// 1 and 2 move to the bottom as 3 and 4, their Leave cascades cost 5
	// and 6 packets, and 3 sends 10 before the bottom fails too: 3 and 4
	// strand inside their join spans, and b leaves the strand list.
	r.c.Fail(r.duplex("r1-r2"))
	r.pkts[1] += 5
	r.pkts[2] += 6
	r.pkts[3] = 10
	r.c.Fail(r.duplex("r3-r5"))
	r.c.Leave(b)
	r.pkts[3] += 2
	r.pkts[4] = 9
	r.c.Quiesced()
	// 1: 5, 2: 6, 3: all 12 (one span, not two), 4: all 9.
	if got := r.c.ReconfigPackets(); got != 5+6+12+9 {
		t.Fatalf("reconfiguration packets %d, want %d", got, 5+6+12+9)
	}
	r.pkts[1] += 50 // a straggler after its span closed
	r.c.Restore(r.duplex("r1-r2"))
	r.c.Join(b, rate.Inf)
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
			r.c.Join(a, rate.Inf)
			r.c.start(r.c.incs[a-1].s, r.c.Path(a), false)
		},
		"leave of an idle session": func(r *rig, a core.SessionID) { r.c.depart(r.c.incs[a-1]) },
		"leave of a retired incarnation": func(r *rig, a core.SessionID) {
			r.c.Join(a, rate.Inf)
			r.c.Leave(a)
			r.c.Join(a, rate.Inf)
			r.c.depart(r.c.incs[a-1])
		},
		"strand of a stranded session": func(r *rig, a core.SessionID) {
			r.c.Fail(r.duplex("ha-r1"))
			r.c.Join(a, rate.Inf)
			r.c.strand(r.c.incs[a-1].s)
		},
		"stranded but not parked": func(r *rig, a core.SessionID) {
			r.c.incs[a-1].s.state = Stranded
			r.c.Leave(a)
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
