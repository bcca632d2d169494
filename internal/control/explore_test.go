package control

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"bneck/internal/core"
	"bneck/internal/graph"
	"bneck/internal/rate"
)

// The controller explorer: a breadth-first search over every sequence of at
// most k operations on a small committed graph, with the visited set keyed
// by the canonical controller state, the failed links and the capacities.
// Each sequence is replayed on a fresh controller whose actions a model
// transport applies, and the invariants below are checked after every
// operation. Because the controller's next actions depend only on that
// state, a state reached again needs no second look: the search is
// exhaustive within its bound. The search itself (explore) is shared with
// the protocol explorer (protocol_test.go), which drives B-Neck's tasks with
// the same operations under every delivery schedule.

// exConfig is one bounded search: a graph, up to three sessions between
// distinct host pairs, the duplex links the topology operations act on, a
// path policy, the operations offered and the bound k.
type exConfig struct {
	name     string
	build    func() (*graph.Graph, map[string]graph.NodeID, map[string][2]graph.LinkID)
	sessions [][2]string
	links    []string
	policy   Policy
	ops      []exOp // the operations offered; nil: every one of the configuration
	k        int
	livelock bool // the protocol explorer finds the known livelock (DESIGN.md §16)
}

// exConfigs are the committed searches: the rig's five-router graph under
// the re-optimizing policy (stretch 2, so only an upgrade moves a session
// off a one-hop-longer detour) and a four-router diamond whose two hosts
// share an access link, under the pinned one.
//
//	ha, hc ─ r1 ─ r2 ─ r4 ─ hb           ha, hc ─ r1 ─ r2 ─ r4 ─ hb
//	          └ r3 ─ r5 ┘                         └ r3 ┘
var exConfigs = []exConfig{
	{
		name:     "rig/reoptimize",
		build:    rigGraph,
		sessions: [][2]string{{"ha", "hb"}, {"hc", "hd"}, {"hc", "hb"}},
		links:    []string{"ha-r1", "r1-r2", "r3-r5", "r4-hb"},
		policy:   Policy{Kind: ReoptimizeOnRestore, Stretch: 2},
		k:        5,
	},
	{
		name: "diamond/pinned",
		build: func() (*graph.Graph, map[string]graph.NodeID, map[string][2]graph.LinkID) {
			return buildGraph([]string{"r1", "r2", "r3", "r4"}, []string{"ha", "hb", "hc"},
				[]string{"ha-r1", "hc-r1", "r1-r2", "r2-r4", "r1-r3", "r3-r4", "r4-hb"})
		},
		sessions: [][2]string{{"ha", "hb"}, {"hc", "hb"}, {"hb", "ha"}},
		links:    []string{"r1-r2", "r3-r4", "r4-hb"},
		k:        5,
	},
}

type exKind uint8

const (
	exJoin    exKind = iota // Join of session i at exJoinDemand
	exLeave                 // Leave of session i
	exChange                // Change of session i to exChangeDemand
	exFail                  // Fail of duplex link i
	exRestore               // Restore of duplex link i
	exUpgrade               // SetCapacity of duplex link i to twice its capacity (at most 2× the base)
	exCut                   // SetCapacity of duplex link i to half its capacity (at least ½ the base)
	exQuiesce               // Quiesced, as a transport calls it at quiescence
	exBad                   // Fail, Restore and SetCapacity with bad input: each must fail and change nothing
)

// exJoinDemand is unlimited so that links, not demands, restrict a joined
// session: the protocol explorer needs bottlenecks.
var exJoinDemand, exChangeDemand = rate.Inf, rate.Mbps(20)

var exStates = [...]string{Idle: "idle", Active: "active", Stranded: "stranded"}

type exOp struct {
	kind exKind
	i    int
}

func (o exOp) String() string {
	return [...]string{"join", "leave", "change", "fail", "restore", "upgrade", "cut", "quiesce", "bad"}[o.kind] + strconv.Itoa(o.i)
}

// exIncarnation is the model transport's view of a started incarnation.
type exIncarnation struct {
	s         int // session index
	path      graph.Path
	left      bool
	reclaimed bool   // left, and a quiescence has passed since: its counter is gone
	pkts      uint64 // grows by one per operation until reclaimed
}

// exRun is one replay: a controller, the model transport that applies its
// actions, and the model state the invariants are checked against.
type exRun struct {
	*exWorld
	c      *Controller
	ids    []core.SessionID // each session's handle: its registered ID
	sessOf map[*session]int
	level  []int // capacity of duplex link i: 100 Mb/s × 2^level[i]

	inc         map[core.SessionID]*exIncarnation
	live        []core.SessionID // per session: its started, not left incarnation
	last        []core.SessionID // per session: its latest incarnation's ID
	lastStarted []bool           // … and whether that one was started
	maxID       core.SessionID
	userLeft    []bool // the last user call on the session was a Leave
	strandOrder []int  // sessions in the order they stranded
	spans       map[core.SessionID]uint64
	reconfig    uint64 // the reconfiguration packets the spans add up to
	err         error

	// retune and run, when set, are the protocol model the operations also
	// drive (TestExploreProtocol): retune reconfigures the links' tasks before
	// the controller hears of a capacity change, run takes the actions the
	// model transport accepted.
	retune func(cp rate.Rate, links []graph.LinkID)
	run    func([]Action)
}

// exWorld is what every replay of a configuration shares: its graph,
// reset before each replay, the sessions' hosts and first paths, the
// duplex links, and a resolver for the invariants.
type exWorld struct {
	cfg    *exConfig
	g      *graph.Graph
	res    *graph.Resolver
	hosts  [][2]graph.NodeID
	paths  []graph.Path
	duplex [][2]graph.LinkID
}

func newExWorld(cfg *exConfig) *exWorld {
	g, node, link := cfg.build()
	w := &exWorld{cfg: cfg, g: g, res: graph.NewResolver(g, 0)}
	for _, s := range cfg.sessions {
		src, dst := node[s[0]], node[s[1]]
		p, err := w.res.HostPath(src, dst)
		if err != nil {
			panic(err)
		}
		w.hosts, w.paths = append(w.hosts, [2]graph.NodeID{src, dst}), append(w.paths, p)
	}
	for _, l := range cfg.links {
		w.duplex = append(w.duplex, link[l])
	}
	return w
}

// newExRun resets the world's graph and registers the sessions with a
// fresh controller.
func newExRun(w *exWorld) *exRun {
	for l := range w.g.NumLinks() {
		w.g.RestoreLink(graph.LinkID(l))
		w.g.SetCapacity(graph.LinkID(l), rate.Mbps(100))
	}
	r := &exRun{exWorld: w, sessOf: map[*session]int{}, inc: map[core.SessionID]*exIncarnation{},
		spans: map[core.SessionID]uint64{}}
	r.c = New(w.g, r.packets)
	r.c.Policy = w.cfg.policy
	for i, p := range w.paths {
		id := r.c.Register(w.hosts[i][0], w.hosts[i][1], p)
		r.ids, r.last, r.maxID = append(r.ids, id), append(r.last, id), id
		r.sessOf[r.c.incs[id-1].s] = i
	}
	n := len(w.paths)
	r.live, r.lastStarted, r.userLeft = make([]core.SessionID, n), make([]bool, n), make([]bool, n)
	r.level = make([]int, len(w.duplex))
	return r
}

func (r *exRun) violate(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// packets is the controller's packet counter: it may ask only about an
// incarnation whose Start the transport has applied and whose counter a
// quiescence after its Leave has not reclaimed.
func (r *exRun) packets(id core.SessionID) uint64 {
	inc := r.inc[id]
	if inc == nil || inc.reclaimed {
		r.violate("packet count asked of incarnation %d, which is not started or was reclaimed", id)
		return 0
	}
	return inc.pkts
}

// ops lists every operation of the configuration, enabled or not.
func (r *exRun) ops() []exOp {
	if r.cfg.ops != nil {
		return r.cfg.ops
	}
	var ops []exOp
	for i := range r.ids {
		ops = append(ops, exOp{exJoin, i}, exOp{exLeave, i}, exOp{exChange, i})
	}
	for i := range r.duplex {
		ops = append(ops, exOp{exFail, i}, exOp{exRestore, i}, exOp{exUpgrade, i}, exOp{exCut, i})
	}
	return append(ops, exOp{exQuiesce, 0}, exOp{exBad, 0})
}

func (r *exRun) enabled(op exOp) bool {
	switch op.kind {
	case exUpgrade:
		return r.level[op.i] < 1
	case exCut:
		return r.level[op.i] > -1
	}
	return true
}

// step runs one operation, applies its actions and checks every invariant.
func (r *exRun) step(op exOp) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	before := make([]State, len(r.ids))
	for s, id := range r.ids {
		before[s] = r.c.State(id)
	}
	var acts []Action
	var opErr error
	topo := op.kind >= exFail
	switch op.kind {
	case exJoin:
		acts, r.userLeft[op.i] = r.c.Join(r.ids[op.i], exJoinDemand), false
	case exLeave:
		acts, r.userLeft[op.i] = r.c.Leave(r.ids[op.i]), true
	case exChange:
		acts = r.c.Change(r.ids[op.i], exChangeDemand)
	case exFail:
		acts, opErr = r.c.Fail(r.duplex[op.i][:])
	case exRestore:
		acts, opErr = r.c.Restore(r.duplex[op.i][:])
	case exUpgrade, exCut:
		if op.kind == exUpgrade {
			r.level[op.i]++
		} else {
			r.level[op.i]--
		}
		cp := rate.Mbps(100)
		if l := r.level[op.i]; l > 0 {
			cp = cp.MulInt(1 << l)
		} else if l < 0 {
			cp = cp.DivInt(1 << -l)
		}
		if r.retune != nil {
			r.retune(cp, r.duplex[op.i][:])
		}
		acts, opErr = r.c.SetCapacity(cp, r.duplex[op.i][:])
	case exQuiesce:
		r.quiesce()
		return r.err
	case exBad:
		r.bad()
		return r.err
	}
	if opErr != nil {
		r.violate("%v failed: %v", op, opErr)
	}
	r.apply(acts, topo, before)
	if r.run != nil && r.err == nil {
		r.run(acts)
	}
	for _, inc := range r.inc {
		if !inc.reclaimed {
			inc.pkts++
		}
	}
	r.check()
	return r.err
}

// apply is the model transport: it checks each action against the
// incarnation's stream (Start Change* Leave?) and the fresh-ID rule, opens
// the spans a topology operation owes, and tracks the strand order.
func (r *exRun) apply(acts []Action, topo bool, before []State) {
	var readmitted, departed []int
	for _, a := range acts {
		switch inc := r.inc[a.ID]; a.Kind {
		case Start:
			if err := graph.ValidatePath(r.g, a.Path); err != nil {
				r.violate("start %d on an invalid path: %v", a.ID, err)
				return
			}
			s := slices.Index(r.hosts, [2]graph.NodeID{r.g.Link(a.Path[0]).From, r.g.Link(a.Path[len(a.Path)-1]).To})
			if s < 0 {
				r.violate("start %d joins no session's hosts", a.ID)
				return
			}
			want := r.last[s]
			if r.lastStarted[s] {
				want = r.maxID + 1
			}
			switch {
			case a.ID != want:
				r.violate("start %d for session %d: the fresh-ID rule gives %d", a.ID, s, want)
			case inc != nil:
				r.violate("start %d: the incarnation was started before", a.ID)
			case r.live[s] != 0:
				r.violate("start %d: session %d's incarnation %d has not left", a.ID, s, r.live[s])
			}
			r.maxID, r.last[s], r.lastStarted[s], r.live[s] = max(r.maxID, a.ID), a.ID, true, a.ID
			r.inc[a.ID] = &exIncarnation{s: s, path: a.Path}
			if topo {
				r.span(a.ID, 0)
			}
			if before[s] == Stranded {
				readmitted = append(readmitted, s)
			}
		case Leave, Change:
			if inc == nil || inc.left {
				r.violate("%s of incarnation %d, which is not started or has left", map[ActionKind]string{Leave: "leave", Change: "change"}[a.Kind], a.ID)
				return
			}
			if a.Kind == Leave {
				if topo {
					r.span(a.ID, inc.pkts)
				}
				inc.left, r.live[inc.s] = true, 0
				departed = append(departed, inc.s)
			}
		}
	}
	// Readmission follows the strand order; those still stranded keep it,
	// and the newly stranded join its end in the order they left.
	var kept, got []int
	for _, s := range r.strandOrder {
		if r.c.State(r.ids[s]) == Stranded {
			kept = append(kept, s)
		} else if slices.Contains(readmitted, s) {
			got = append(got, s)
		}
	}
	if !slices.Equal(got, readmitted) {
		r.violate("readmitted sessions %v, strand order %v", readmitted, r.strandOrder)
	}
	for s := range r.ids { // a Join strands at most one session
		departed = append(departed, s)
	}
	for _, s := range departed {
		if r.c.State(r.ids[s]) == Stranded && before[s] != Stranded && !slices.Contains(kept, s) {
			kept = append(kept, s)
		}
	}
	r.strandOrder = kept
}

// span opens incarnation id's reconfiguration span unless one is open.
func (r *exRun) span(id core.SessionID, base uint64) {
	if _, ok := r.spans[id]; !ok {
		r.spans[id] = base
	}
}

// quiesce closes the spans, each counted once, and reclaims the counters
// of the incarnations that left.
func (r *exRun) quiesce() {
	for id, base := range r.spans {
		r.reconfig += r.inc[id].pkts - base
	}
	clear(r.spans)
	r.c.Quiesced()
	if got := r.c.ReconfigPackets(); got != r.reconfig {
		r.violate("reconfiguration packets %d, the spans add up to %d", got, r.reconfig)
	}
	for _, inc := range r.inc {
		inc.reclaimed = inc.left
	}
}

// bad checks that bad topology input is an error and a no-op.
func (r *exRun) bad() {
	k := r.key()
	ls := r.duplex[0][:]
	for _, err := range []error{
		second(r.c.Fail(append(slices.Clip(ls), graph.LinkID(r.g.NumLinks())))),
		second(r.c.Restore([]graph.LinkID{-1})),
		second(r.c.SetCapacity(rate.Zero, ls)),
		second(r.c.SetCapacity(rate.Mbps(100), []graph.LinkID{ls[0], -1})),
	} {
		if err == nil {
			r.violate("bad topology input accepted")
		}
	}
	if r.key() != k {
		r.violate("bad topology input changed the controller")
	}
}

func second[T any](_ T, err error) error { return err }

// check tests the state invariants after an operation.
func (r *exRun) check() {
	for s, id := range r.ids {
		st, cur := r.c.State(id), r.c.Current(id)
		switch {
		case (st == Active) != (r.live[s] != 0) || st == Active && r.live[s] != cur:
			r.violate("session %d is %s on incarnation %d, the transport runs %d", s, exStates[st], cur, r.live[s])
		case st == Active && !slices.Equal(r.c.Path(cur), r.inc[cur].path):
			r.violate("session %d's path is not the one its incarnation started on", s)
		case st == Active && graph.ValidatePath(r.g, r.c.Path(cur)) != nil:
			r.violate("active session %d is routed over a failed link", s)
		case st == Stranded && second(r.res.HostPath(r.hosts[s][0], r.hosts[s][1])) == nil:
			r.violate("stranded session %d has an up path", s)
		case r.userLeft[s] && st != Idle:
			r.violate("session %d is %s after the user left", s, exStates[st])
		case (st == Stranded) != slices.Contains(r.strandOrder, s):
			r.violate("session %d is %s, but the strand list says otherwise", s, exStates[st])
		}
	}
	if r.c.Stranded() != len(r.strandOrder) {
		r.violate("%d stranded, want %d", r.c.Stranded(), len(r.strandOrder))
	}
}

// key is the canonical state: each session's state, demand, current
// incarnation (its flags and path) and the creation order of those
// incarnations, the strand list, the open spans (by session, and how many
// of its incarnations are newer), the failed links and the capacities —
// plus which sessions the user left, the one bit of history an invariant
// reads. Absolute IDs are left out: they only name what the rest describes.
func (r *exRun) key() string {
	b := make([]byte, 0, 256)
	c := r.c
	curs := make([]*incarnation, len(r.ids))
	for s, id := range r.ids {
		inc := c.incs[c.Current(id)-1]
		curs[s] = inc
		b = append(b, byte('0'+inc.s.state))
		b = strconv.AppendFloat(b, inc.s.demand.Float64(), 'g', -1, 64)
		for _, f := range []bool{inc.joined, inc.departed, inc.counted} {
			b = strconv.AppendBool(b, f)
		}
		for _, l := range inc.path {
			b = strconv.AppendInt(append(b, ','), int64(l), 10)
		}
		b = append(b, ';')
	}
	order := make([]int, len(curs))
	for s := range order {
		order[s] = s
	}
	slices.SortFunc(order, func(x, y int) int { return int(curs[x].id) - int(curs[y].id) })
	for _, s := range order {
		b = append(b, byte('0'+s))
	}
	b = append(b, '|')
	for _, s := range c.stranded {
		b = append(b, byte('0'+r.sessOf[s]))
	}
	b = append(b, '|')
	for _, inc := range c.spans {
		newer := 0
		for _, o := range c.incs[inc.id:] {
			if o.s == inc.s {
				newer++
			}
		}
		b = append(b, byte('0'+r.sessOf[inc.s]), byte('0'+newer))
	}
	b = append(b, '|')
	for l := range r.g.NumLinks() {
		if r.g.LinkUp(graph.LinkID(l)) {
			b = append(b, 'u')
		} else {
			b = append(b, 'd')
		}
	}
	for _, lv := range r.level {
		b = append(b, byte('1'+lv))
	}
	for _, left := range r.userLeft { // what the invariants read of the history
		b = strconv.AppendBool(b, left)
	}
	return string(b)
}

// exResult is what a search found: its counts, and the first violation with
// the shortest action sequence that reaches it — or, when the transitions
// close a cycle, the actions of one cycle and the shortest sequence that
// reaches it.
type exResult[A any] struct {
	states, transitions int
	violation           error
	trace, cycle        []A
}

// explore searches breadth first every action sequence replay accepts.
// replay rebuilds from scratch the state a sequence reaches and returns its
// canonical key, the actions enabled there (none once the client's bound is
// reached) and the first violation on the way. A state reached again is not
// expanded again, so the search is exhaustive; it stops at the first
// violation. Every transition is recorded, and Kahn's algorithm over them
// finds any cycle: an infinite schedule.
func explore[A any](replay func(seq []A) (key string, next []A, err error)) exResult[A] {
	type node struct {
		parent int32
		act    A
		next   []A
	}
	type edge struct {
		from, to int32
		act      A
	}
	key, next, _ := replay(nil)
	visited := map[string]int32{key: 0}
	nodes := []node{{parent: -1, next: next}}
	var edges []edge
	seqOf := func(i int32) []A {
		var seq []A
		for ; i > 0; i = nodes[i].parent {
			seq = append(seq, nodes[i].act)
		}
		slices.Reverse(seq)
		return seq
	}
	res := exResult[A]{states: 1}
	for i := int32(0); int(i) < len(nodes); i++ { // nodes are numbered in breadth-first order
		seq := seqOf(i)
		for _, a := range nodes[i].next {
			res.transitions++
			succ := append(slices.Clip(seq), a)
			key, next, err := replay(succ)
			if err != nil {
				res.violation, res.trace = err, succ
				return res
			}
			j, seen := visited[key]
			if !seen {
				j = int32(len(nodes))
				visited[key] = j
				nodes = append(nodes, node{parent: i, act: a, next: next})
				res.states++
			}
			edges = append(edges, edge{i, j, a})
		}
		nodes[i].next = nil
	}
	indeg, out, in := make([]int, len(nodes)), make([][]int32, len(nodes)), make([][]int32, len(nodes))
	for e, ed := range edges {
		indeg[ed.to]++
		out[ed.from], in[ed.to] = append(out[ed.from], ed.to), append(in[ed.to], int32(e))
	}
	var free []int32
	for i, d := range indeg {
		if d == 0 {
			free = append(free, int32(i))
		}
	}
	for len(free) > 0 {
		i := free[len(free)-1]
		free = free[:len(free)-1]
		for _, j := range out[i] {
			if indeg[j]--; indeg[j] == 0 {
				free = append(free, j)
			}
		}
	}
	// Every state Kahn leaves has a predecessor it leaves too, so walking
	// back from one closes a cycle.
	v := int32(slices.IndexFunc(indeg, func(d int) bool { return d > 0 }))
	if v < 0 {
		return res
	}
	at, walk := map[int32]int{}, []int32(nil)
	for ; ; v = edges[walk[len(walk)-1]].from {
		if _, ok := at[v]; ok {
			break
		}
		at[v] = len(walk)
		walk = append(walk, in[v][slices.IndexFunc(in[v], func(e int32) bool { return indeg[edges[e].from] > 0 })])
	}
	walk = walk[at[v]:]
	slices.Reverse(walk)
	res.trace = seqOf(v)
	for _, e := range walk {
		res.cycle = append(res.cycle, edges[e].act)
	}
	return res
}

// exploreController searches cfg up to k operations, replaying each
// sequence on a fresh controller.
func exploreController(cfg *exConfig, k int) exResult[exOp] {
	w := newExWorld(cfg)
	return explore(func(seq []exOp) (string, []exOp, error) {
		r := newExRun(w)
		for _, op := range seq {
			if err := r.step(op); err != nil {
				return "", nil, err
			}
		}
		var next []exOp
		for _, op := range r.ops() {
			if len(seq) < k && r.enabled(op) {
				next = append(next, op)
			}
		}
		return r.key(), next, nil
	})
}

// TestExploreController runs every committed search and reports its counts
// (-short lowers each bound by one).
// In a build with a bug double (mc_stalebug, mc_strandbug) the search must
// find the bug instead.
func TestExploreController(t *testing.T) {
	bug := buggyRejoinReuse || buggyLeaveSkipsUnstrand
	caught := false
	for i := range exConfigs {
		cfg := &exConfigs[i]
		k := cfg.k
		if testing.Short() {
			k--
		}
		res := exploreController(cfg, k)
		t.Logf("%s: k=%d: %d states, %d transitions", cfg.name, k, res.states, res.transitions)
		if res.violation != nil {
			if !bug {
				t.Fatalf("%s: %v after %v", cfg.name, res.violation, res.trace)
			}
			t.Logf("%s: caught the bug double: %v after %v", cfg.name, res.violation, res.trace)
			caught = true
		}
	}
	if bug && !caught {
		t.Fatal("no search caught the bug double")
	}
}

// TestExplorerReportsViolations: each invariant class the explorer checks
// fires on a controller forced into the broken state, so a clean search
// means something.
func TestExplorerReportsViolations(t *testing.T) {
	cfg := &exConfigs[0]
	for name, tc := range map[string]struct {
		seq    []exOp
		tamper func(r *exRun)
		want   string
	}{
		"stale ID": {[]exOp{{exJoin, 0}, {exLeave, 0}}, func(r *exRun) {
			r.c.incs[r.ids[0]-1].joined = false // the rejoin reuses ID 1
		}, "fresh-ID rule"},
		"left but stranded":  {[]exOp{{exFail, 0}, {exJoin, 0}}, func(r *exRun) { r.userLeft[0] = true }, "after the user left"},
		"span counted twice": {[]exOp{{exJoin, 0}, {exFail, 1}}, func(r *exRun) { r.c.spans = append(r.c.spans, r.c.spans[0]) }, "spans add up"},
		"strand order":       {[]exOp{{exJoin, 0}, {exJoin, 2}, {exFail, 3}}, func(r *exRun) { slices.Reverse(r.c.stranded) }, "strand order"},
	} {
		t.Run(name, func(t *testing.T) {
			r := newExRun(newExWorld(cfg))
			for _, op := range tc.seq {
				if err := r.step(op); err != nil {
					t.Fatal(err)
				}
			}
			tc.tamper(r)
			var err error
			for _, op := range []exOp{{exRestore, 3}, {exJoin, 0}, {exQuiesce, 0}} {
				if err = r.step(op); err != nil {
					break
				}
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want a violation mentioning %q", err, tc.want)
			}
		})
	}
}
