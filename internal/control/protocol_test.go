package control

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"bneck/internal/core"
	"bneck/internal/graph"
	"bneck/internal/rate"
)

// The protocol explorer: B-Neck's tasks (internal/core) in the paper's own
// model — reliable channels, FIFO per direction, arbitrary finite delays —
// driven by the controller's actions. A state is the operation history
// (which fixes the controller), every task and every channel: one FIFO per
// directed wire, shared by all the sessions crossing it, and one per
// direction of each incarnation's hand-off between its source and its
// access-link task, picked as the simulator's port.Emit picks them. An
// action delivers the head of a non-empty channel or, below the
// configuration's bound, applies an operation through the controller
// explorer's model transport (exRun), whose accepted actions reach the tasks
// as network.apply applies them. explore visits every reachable state, with
// no depth bound and no reduction; at every state whose channels are empty
// the transports' own quiescent check (Controller.Check) must pass, a
// handler must never panic, and the transition graph must be acyclic: a
// cycle is a schedule that never quiesces.
//
// The quiescence history (which spans Quiesced has closed) is not keyed: it
// moves only the span counters, which the controller explorer checks.

// protoConfigs are the committed searches: one session on a line, sized for
// the bug doubles (a stale rejoin after [join0 leave0 join0], a left session
// still stranded after [join0 fail0 leave0]); two sessions sharing a
// bottleneck, which holds the known livelock (DESIGN.md §16: after a
// re-probe, each session's SetBottleneck can pass the shared link while the
// other is mid-probe, reach its destination unconfirmed and trigger the
// other's next re-probe, forever); and two sessions moved together when the
// link they share fails.
//
//	ha ─ r1 ─ r2 ─ hb          ha, hc ─ r1 ─ hb          ha, hc ─ r1 ─ r2 ─ hb
//	                                                               └ r3 ┘
var protoConfigs = []exConfig{
	{
		name: "line/1 session",
		build: func() (*graph.Graph, map[string]graph.NodeID, map[string][2]graph.LinkID) {
			return buildGraph([]string{"r1", "r2"}, []string{"ha", "hb"}, []string{"ha-r1", "r1-r2", "r2-hb"})
		},
		sessions: [][2]string{{"ha", "hb"}},
		links:    []string{"r1-r2"},
		ops:      []exOp{{exJoin, 0}, {exLeave, 0}, {exChange, 0}, {exFail, 0}, {exRestore, 0}, {exCut, 0}},
		k:        3,
	},
	{
		name: "shared/2 sessions",
		build: func() (*graph.Graph, map[string]graph.NodeID, map[string][2]graph.LinkID) {
			return buildGraph([]string{"r1"}, []string{"ha", "hb", "hc"}, []string{"ha-r1", "hc-r1", "r1-hb"})
		},
		sessions: [][2]string{{"ha", "hb"}, {"hc", "hb"}},
		links:    []string{"r1-hb"},
		ops:      []exOp{{exJoin, 0}, {exJoin, 1}, {exChange, 0}, {exLeave, 1}, {exCut, 0}},
		k:        3,
		livelock: true,
	},
	{
		name: "detour/2 sessions",
		build: func() (*graph.Graph, map[string]graph.NodeID, map[string][2]graph.LinkID) {
			return buildGraph([]string{"r1", "r2", "r3"}, []string{"ha", "hb", "hc"},
				[]string{"ha-r1", "hc-r1", "r1-r2", "r2-hb", "r1-r3", "r3-r2"})
		},
		sessions: [][2]string{{"ha", "hb"}, {"hc", "hb"}},
		links:    []string{"r1-r2"},
		ops:      []exOp{{exJoin, 0}, {exJoin, 1}, {exFail, 0}},
		k:        2,
	},
}

// protoAct is one protocol-model action: deliver the head of channel ch, or
// apply op.
type protoAct struct {
	deliver bool
	ch      int // a wire by its directed link (≥ 0), or incarnation id's hand-off: −2·id down, −2·id−1 up
	op      exOp
}

func (a protoAct) String() string {
	switch {
	case !a.deliver:
		return a.op.String()
	case a.ch >= 0:
		return "w" + strconv.Itoa(a.ch)
	}
	return "s" + strconv.Itoa(-a.ch/2) + [...]string{"↓", "↑"}[-a.ch%2]
}

// protoMsg is a packet in a channel and the hop it is delivered to.
type protoMsg struct {
	hop int
	pkt core.Packet
}

// protoInc is a started incarnation: its path, its end tasks and its two
// hand-off channels (down, up).
type protoInc struct {
	path graph.Path
	src  *core.SourceNode
	dst  *core.DestinationNode
	hand [2][]protoMsg
}

// protoNet is one replay of the protocol model.
type protoNet struct {
	*exRun
	hist  []exOp
	links []*core.RouterLink // by directed link, created at first use
	wires [][]protoMsg       // by directed link
	incs  []protoInc         // by incarnation ID − 1

	// fault, when set, sees every delivery first and says whether the
	// packet reaches its task (TestProtocolExplorerReportsViolations).
	fault   func(n *protoNet, ch int, m protoMsg) bool
	faulted bool
}

func newProtoNet(w *exWorld) *protoNet {
	n := &protoNet{exRun: newExRun(w)}
	n.links, n.wires = make([]*core.RouterLink, w.g.NumLinks()), make([][]protoMsg, w.g.NumLinks())
	n.retune = func(cp rate.Rate, links []graph.LinkID) {
		for _, l := range links {
			if n.links[l] != nil {
				n.links[l].SetCapacity(cp)
			}
		}
	}
	n.run = n.act
	return n
}

// act runs the accepted actions on the tasks, as network.apply does.
func (n *protoNet) act(acts []Action) {
	for _, a := range acts {
		switch a.Kind {
		case Start:
			for len(n.incs) < int(a.ID) {
				n.incs = append(n.incs, protoInc{})
			}
			n.incs[a.ID-1] = protoInc{path: a.Path, src: core.NewSourceNode(a.ID, n, nil), dst: core.NewDestinationNode(a.ID, n)}
			for _, l := range a.Path {
				if n.links[l] == nil {
					n.links[l] = core.NewRouterLink(core.LinkRef(l), n.g.Link(l).Capacity, n)
				}
			}
			n.incs[a.ID-1].src.Join(a.Demand)
		case Leave:
			n.incs[a.ID-1].src.Leave()
		case Change:
			n.incs[a.ID-1].src.Change(a.Demand)
		}
	}
}

// Emit queues a packet on the channel it crosses.
func (n *protoNet) Emit(s core.SessionID, from int, dir core.Direction, pkt core.Packet) {
	inc := &n.incs[s-1]
	m := protoMsg{hop: from + 1, pkt: pkt}
	if dir == core.Up {
		m.hop = from - 1
	}
	ch := -2 * int(s) // the hand-off down
	switch {
	case dir == core.Up && from == 1:
		ch-- // the hand-off up
	case dir == core.Down && from >= 1:
		ch = int(inc.path[from-1])
	case dir == core.Up:
		ch = int(n.g.LinkReverse(inc.path[from-2]))
	}
	q := n.queue(ch)
	*q = append(*q, m)
}

func (n *protoNet) queue(ch int) *[]protoMsg {
	if ch >= 0 {
		return &n.wires[ch]
	}
	return &n.incs[-ch/2-1].hand[-ch%2]
}

// channels yields the non-empty channels in a fixed order: the hand-offs by
// incarnation, then the wires by link.
func (n *protoNet) channels(yield func(int, []protoMsg) bool) {
	for i := range n.incs {
		for d, q := range n.incs[i].hand {
			if len(q) > 0 && !yield(-2*(i+1)-d, q) {
				return
			}
		}
	}
	for l, q := range n.wires {
		if len(q) > 0 && !yield(l, q) {
			return
		}
	}
}

// do takes one action, then checks a state whose channels are empty as the
// transports check a quiescent one.
func (n *protoNet) do(a protoAct) {
	if !a.deliver {
		n.hist = append(n.hist, a.op)
		if err := n.step(a.op); err != nil {
			n.violate("%w", err)
		}
	} else {
		q := n.queue(a.ch)
		m := (*q)[0]
		*q = (*q)[1:]
		if n.fault == nil || n.fault(n, a.ch, m) {
			inc := &n.incs[m.pkt.Session-1]
			switch {
			case m.hop == 0:
				inc.src.Receive(m.pkt)
			case m.hop == len(inc.path)+1:
				inc.dst.Receive(m.pkt, m.hop)
			default:
				n.links[inc.path[m.hop-1]].Receive(m.pkt, m.hop)
			}
		}
	}
	if n.err == nil {
		n.quiescent()
	}
}

func (n *protoNet) quiescent() {
	for range n.channels {
		return
	}
	if err := n.c.Check(n.rateOf, n.tasks, true); err != nil {
		n.violate("quiescent after %v: %w", n.hist, err)
		return
	}
	n.quiesce()
}

func (n *protoNet) rateOf(id core.SessionID) (rate.Rate, bool, bool) {
	src := n.incs[id-1].src
	r, ok := src.Rate()
	return r, ok, src.Converged()
}

func (n *protoNet) tasks(yield func(graph.LinkID, Task) bool) {
	for l, t := range n.links {
		if t != nil && !yield(graph.LinkID(l), t) {
			return
		}
	}
}

// key is the canonical state: the operations applied, every link task by
// link and every source task by incarnation, then the channel contents.
func (n *protoNet) key() string {
	b := make([]byte, 0, 512)
	for _, op := range n.hist {
		b = append(b, byte('a'+op.kind), byte('0'+op.i))
	}
	b = append(b, '|')
	for _, t := range n.links {
		if t != nil {
			b = t.AppendState(b)
		}
	}
	for _, inc := range n.incs {
		if inc.src != nil {
			b = inc.src.AppendState(b)
		}
	}
	for ch, q := range n.channels {
		b = strconv.AppendInt(append(b, '#'), int64(ch), 10)
		for _, m := range q {
			p := m.pkt
			b = fmt.Appendf(b, " %d %d s%d %s %d %d %t", m.hop, p.Type, p.Session, p.Rate.Key(), p.Bneck, p.Resp, p.Beta)
		}
	}
	return string(b)
}

// next lists the actions enabled at the state: the operations while fewer
// than k were applied, then a delivery per non-empty channel.
func (n *protoNet) next(k int) []protoAct {
	var acts []protoAct
	for _, op := range n.ops() {
		if len(n.hist) < k && n.enabled(op) {
			acts = append(acts, protoAct{op: op})
		}
	}
	for ch := range n.channels {
		acts = append(acts, protoAct{deliver: true, ch: ch})
	}
	return acts
}

// replayProto rebuilds the state seq reaches on a fresh model; a handler
// panic is a violation.
func replayProto(w *exWorld, seq []protoAct, fault func(*protoNet, int, protoMsg) bool) (n *protoNet, err error) {
	n = newProtoNet(w)
	n.fault = fault
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic after %v: %v", seq, p)
		}
	}()
	n.quiescent()
	for _, a := range seq {
		if n.do(a); n.err != nil {
			return n, n.err
		}
	}
	return n, n.err
}

// exploreProtocol searches cfg exhaustively.
func exploreProtocol(cfg *exConfig, k int, fault func(*protoNet, int, protoMsg) bool) exResult[protoAct] {
	w := newExWorld(cfg)
	return explore(func(seq []protoAct) (string, []protoAct, error) {
		n, err := replayProto(w, seq, fault)
		if err != nil {
			return "", nil, err
		}
		return n.key(), n.next(k), nil
	})
}

// raceDetector is set in a -race build (race_test.go).
var raceDetector bool

// TestExploreProtocol runs every committed search to exhaustion and reports
// its counts (-short and -race lower each bound by one). A search finds no
// cycle unless its configuration is marked with the known livelock, which it
// must then find (at the full bound). In a build with a bug double
// (mc_stalebug, mc_strandbug) a search must find the bug instead, and
// replaying its sequence must give the same error.
func TestExploreProtocol(t *testing.T) {
	bug := buggyRejoinReuse || buggyLeaveSkipsUnstrand
	caught := false
	full := !testing.Short() && !raceDetector
	for i := range protoConfigs {
		cfg := &protoConfigs[i]
		k := cfg.k
		if !full {
			k--
		}
		res := exploreProtocol(cfg, k, nil)
		shape := "acyclic"
		if res.cycle != nil {
			shape = fmt.Sprintf("cycle %v after %v", res.cycle, res.trace)
		} else if res.violation != nil {
			shape = "stopped at a violation"
		}
		t.Logf("%s: k=%d: %d states, %d transitions, %s", cfg.name, k, res.states, res.transitions, shape)
		switch {
		case res.violation != nil && !bug:
			t.Fatalf("%s: %v", cfg.name, res.violation)
		case res.violation != nil:
			t.Logf("%s: caught the bug double after %v: %v", cfg.name, res.trace, res.violation)
			if _, err := replayProto(newExWorld(cfg), res.trace, nil); err == nil || err.Error() != res.violation.Error() {
				t.Fatalf("%s: replaying %v gives %v", cfg.name, res.trace, err)
			}
			if buggyRejoinReuse && !strings.Contains(res.violation.Error(), "fresh-ID rule") && !errors.Is(res.violation, ErrStaleIncarnation) {
				t.Fatalf("%s: the stale rejoin was reported as %v", cfg.name, res.violation)
			}
			caught = true
		case res.cycle != nil && !cfg.livelock:
			t.Fatalf("%s: a schedule that never quiesces", cfg.name)
		case res.cycle == nil && cfg.livelock && full:
			t.Fatalf("%s: the known livelock is gone: unmark the configuration", cfg.name)
		}
	}
	if bug && !caught {
		t.Fatal("no search caught the bug double")
	}
}

// TestProtocolExplorerReportsViolations: a wire that drops a packet, a task
// that panics and a wire that re-delivers are each reported, so a clean
// search means something.
func TestProtocolExplorerReportsViolations(t *testing.T) {
	for name, tc := range map[string]struct {
		fault func(*protoNet, int, protoMsg) bool
		want  string
	}{
		"dropped SetBottleneck": {func(n *protoNet, _ int, m protoMsg) bool {
			drop := m.pkt.Type == core.PktSetBottleneck && !n.faulted
			n.faulted = n.faulted || drop
			return !drop
		}, "unstable"},
		"task panic": {func(_ *protoNet, _ int, m protoMsg) bool {
			if m.pkt.Type == core.PktResponse && m.hop == 0 {
				panic("armed")
			}
			return true
		}, "panic"},
		"re-enqueued head": {func(n *protoNet, ch int, m protoMsg) bool {
			if n.faulted {
				return true
			}
			n.faulted = true
			q := n.queue(ch)
			*q = append(*q, m)
			return false
		}, "cycle"},
	} {
		t.Run(name, func(t *testing.T) {
			res := exploreProtocol(&protoConfigs[1], 2, tc.fault)
			got := fmt.Sprint(res.violation)
			if res.cycle != nil {
				got = fmt.Sprintf("cycle %v after %v", res.cycle, res.trace)
			}
			if !strings.Contains(got, tc.want) {
				t.Fatalf("got %s, want a report mentioning %q", got, tc.want)
			}
		})
	}
}
