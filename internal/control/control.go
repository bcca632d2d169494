// Package control is the control plane both transports share: session
// lifecycle, topology reactions and the path policy, as a state machine over
// the graph whose operations return B-Neck Join, Leave and Change actions (a
// rerouted session Leaves, and a successor with a fresh ID Joins on the new
// path). A transport (internal/network, internal/live) applies them from its
// serial context. DESIGN.md §6 has the transition table, §8 the
// quiescent-state check (Check), §11 the path policy.
package control

import (
	"errors"
	"fmt"
	"iter"
	"slices"

	"bneck/internal/core"
	"bneck/internal/graph"
	"bneck/internal/rate"
	"bneck/internal/waterfill"
)

// ErrStaleIncarnation reports a departed incarnation observed Active again, a
// broken fresh-ID rule. Check wraps it; classify with errors.Is.
var ErrStaleIncarnation = errors.New("control: departed-but-active incarnation (stale rejoin)")

// State is a session's lifecycle state.
type State uint8

const (
	Idle     State = iota // not joined: never, or since its last Leave
	Active                // joined; its current incarnation carries the protocol
	Stranded              // joined, but no path joins its hosts: parked with its demand
)

// ActionKind is the protocol call an Action asks of the transport.
type ActionKind uint8

const (
	Start  ActionKind = iota + 1 // join incarnation ID (new, or its session's first) on Path with Demand
	Leave                        // active incarnation ID leaves
	Change                       // active incarnation ID's demand becomes Demand
)

// Action is one protocol call a transport makes for the controller. Each
// operation returns its actions in the order the transport must take them,
// in a buffer the controller reuses: valid until the next call.
type Action struct {
	Kind   ActionKind
	ID     core.SessionID
	Path   graph.Path // Start only
	Demand rate.Rate  // Start and Change
}

// Controller is the control plane over one graph.
type Controller struct {
	Policy   Policy // path re-optimization (Pinned by default)
	g        *graph.Graph
	res      *graph.Resolver
	packets  func(core.SessionID) uint64       // packets a started incarnation sent across links
	acts     []Action                          // the last operation's actions, reused
	incs     []*incarnation                    // incs[id-1]: IDs are minted 1, 2, … in creation order
	stranded []*session                        // in strand order
	spans    []*incarnation                    // open reconfiguration spans (ReconfigPackets)
	oracle   waterfill.Assembler[graph.LinkID] // Oracle's scratch, kept between calls

	migrated, reoptimized, reconfig uint64
}

type session struct {
	src, dst graph.NodeID
	cur      *incarnation
	state    State
	demand   rate.Rate
}

// incarnation is one protocol lifetime of a session: an ID and a path.
type incarnation struct {
	id       core.SessionID
	s        *session
	path     graph.Path
	joined   bool   // carried a Join: its session's next Start mints a fresh ID
	departed bool   // a Leave was issued to it
	counted  bool   // in an open reconfiguration span
	base     uint64 // its packet count when the span opened
}

// New returns a controller over g. packets reads a started incarnation's
// packet count, asked only until the quiescence that follows its Leave.
func New(g *graph.Graph, packets func(core.SessionID) uint64) *Controller {
	capacity := func(l graph.LinkID) rate.Rate { return g.Link(l).Capacity }
	oracle := waterfill.Assembler[graph.LinkID]{Capacity: capacity}
	return &Controller{g: g, res: graph.NewResolver(g, 256), packets: packets, oracle: oracle}
}

// HostPath resolves a path with the resolver reroutes use.
func (c *Controller) HostPath(src, dst graph.NodeID) (graph.Path, error) {
	return c.res.HostPath(src, dst)
}

// Register adds an idle session between two hosts along a valid path.
func (c *Controller) Register(src, dst graph.NodeID, path graph.Path) core.SessionID {
	return c.mint(&session{src: src, dst: dst}, path).id
}

func (c *Controller) mint(s *session, path graph.Path) *incarnation {
	s.cur = &incarnation{id: core.SessionID(len(c.incs) + 1), s: s, path: path}
	c.incs = append(c.incs, s.cur)
	return s.cur
}

// Reads by incarnation ID (IDs run 1 to Len): its session's current one and
// state, whether id is Active, whether a Leave was issued to it, its path.
func (c *Controller) Len() int                                 { return len(c.incs) }
func (c *Controller) Current(id core.SessionID) core.SessionID { return c.incs[id-1].s.cur.id }
func (c *Controller) State(id core.SessionID) State            { return c.incs[id-1].s.state }
func (c *Controller) Active(id core.SessionID) bool            { return c.active(c.incs[id-1]) }
func (c *Controller) Departed(id core.SessionID) bool          { return c.incs[id-1].departed }
func (c *Controller) Path(id core.SessionID) graph.Path        { return c.incs[id-1].path }

func (c *Controller) active(inc *incarnation) bool { return inc.s.state == Active && inc.s.cur == inc }

// Counters: parked sessions, forced reroutes, policy moves, and the packets
// of the reconfiguration spans: each force-departed incarnation's from its
// Leave, each topology-driven (re)join's from its Start, up to the
// quiescence that follows (Quiesced). User churn is never counted.
func (c *Controller) Stranded() int           { return len(c.stranded) }
func (c *Controller) Migrations() uint64      { return c.migrated }
func (c *Controller) Reoptimizations() uint64 { return c.reoptimized }
func (c *Controller) ReconfigPackets() uint64 { return c.reconfig }

// Join asks for demand on id's session. An idle session joins on its path,
// rerouted around failed links, or strands; a joined one takes a Change.
func (c *Controller) Join(id core.SessionID, demand rate.Rate) []Action {
	s := c.incs[id-1].s
	if s.state != Idle {
		return c.Change(id, demand)
	}
	c.acts = c.acts[:0]
	s.demand = demand
	path, err := s.cur.path, error(nil)
	if !c.up(path) {
		path, err = c.res.HostPath(s.src, s.dst)
	}
	if err != nil {
		c.strand(s)
	} else {
		c.start(s, path, false)
	}
	return c.acts
}

// Leave takes id's session out: an active one through the protocol's Leave,
// a stranded one off the strand list. It dissolves on an idle session.
func (c *Controller) Leave(id core.SessionID) []Action {
	c.acts = c.acts[:0]
	switch s := c.incs[id-1].s; {
	case s.state == Stranded && !buggyLeaveSkipsUnstrand:
		i := slices.Index(c.stranded, s)
		must(i >= 0, "Leave of a stranded session that is not parked", id)
		c.stranded = slices.Delete(c.stranded, i, i+1)
		s.state = Idle
	case s.state == Active:
		c.depart(s.cur)
	}
	return c.acts
}

// Change sets the demand of id's session, through the protocol when it is
// active, for its readmission when stranded; it dissolves when idle.
func (c *Controller) Change(id core.SessionID, demand rate.Rate) []Action {
	c.acts = c.acts[:0]
	if s := c.incs[id-1].s; s.state != Idle {
		s.demand = demand
		if s.state == Active {
			c.acts = append(c.acts, Action{Kind: Change, ID: s.cur.id, Demand: demand})
		}
	}
	return c.acts
}

// CheckLinks reports a link the graph lacks, or a capacity cp that is
// neither positive nor rate.Inf: what Fail, Restore and SetCapacity reject
// before they change anything.
func (c *Controller) CheckLinks(cp rate.Rate, links []graph.LinkID) error {
	if i := slices.IndexFunc(links, func(l graph.LinkID) bool { return l < 0 || int(l) >= c.g.NumLinks() }); i >= 0 {
		return fmt.Errorf("control: unknown link %d", links[i])
	} else if cp.Sign() <= 0 && !cp.IsInf() {
		return fmt.Errorf("control: non-positive capacity %v", cp)
	}
	return nil
}

// Fail takes links down, then moves every active session crossing one onto
// a surviving path or strands it (every Start picks an up path).
func (c *Controller) Fail(links []graph.LinkID) ([]Action, error) {
	if err := c.CheckLinks(rate.Inf, links); err != nil {
		return nil, err
	}
	c.acts = c.acts[:0]
	for _, l := range links {
		c.g.FailLink(l)
	}
	for _, inc := range c.incs {
		if c.active(inc) && !c.up(inc.path) {
			path, err := c.res.HostPath(inc.s.src, inc.s.dst)
			c.move(inc, path, err, &c.migrated)
		}
	}
	return c.acts, nil
}

// Restore brings links back up, readmits the stranded sessions a path now
// reaches, and lets the path policy sweep the active ones.
func (c *Controller) Restore(links []graph.LinkID) ([]Action, error) {
	if err := c.CheckLinks(rate.Inf, links); err != nil {
		return nil, err
	}
	c.acts = c.acts[:0]
	restored := false
	for _, l := range links {
		restored = !c.g.LinkUp(l) || restored
		c.g.RestoreLink(l)
	}
	if !restored {
		return c.acts, nil
	}
	waiting := c.stranded
	c.stranded = nil
	for _, s := range waiting {
		if path, err := c.res.HostPath(s.src, s.dst); err != nil {
			c.stranded = append(c.stranded, s)
		} else {
			c.start(s, path, true)
		}
	}
	c.reoptimize(nil)
	return c.acts, nil
}

// SetCapacity sets links' capacity; a policy upgrade sweeps the sessions.
// The transport reconfigures the links' tasks first, so the sweep reads the
// packet counts their re-probes leave.
func (c *Controller) SetCapacity(cp rate.Rate, links []graph.LinkID) ([]Action, error) {
	if err := c.CheckLinks(cp, links); err != nil {
		return nil, err
	}
	c.acts = c.acts[:0]
	upgraded := map[graph.LinkID]bool{}
	for _, l := range links {
		if c.Policy.capacityTriggers(c.g.Link(l).Capacity, cp) {
			upgraded[l] = true
		}
		c.g.SetCapacity(l, cp)
	}
	if len(upgraded) > 0 {
		c.reoptimize(upgraded)
	}
	return c.acts, nil
}

// reoptimize moves active sessions the policy finds too far off their best
// path onto it, waiving the hysteresis if it crosses an upgraded link.
func (c *Controller) reoptimize(upgraded map[graph.LinkID]bool) {
	if !c.Policy.Enabled() {
		return
	}
	for _, inc := range c.incs {
		if !c.active(inc) {
			continue
		}
		best, err := c.res.HostPath(inc.s.src, inc.s.dst)
		if err == nil && c.Policy.shouldMigrate(len(inc.path), len(best), crosses(best, upgraded)) {
			c.move(inc, best, nil, &c.reoptimized)
		}
	}
}

// Quiesced closes the open reconfiguration spans. Call it at quiescence.
func (c *Controller) Quiesced() {
	for _, inc := range c.spans {
		c.reconfig += c.packets(inc.id) - inc.base
		inc.counted = false
	}
	c.spans = c.spans[:0]
}

// Oracle returns every Active incarnation's max-min fair rate, in creation order.
func (c *Controller) Oracle() ([]rate.Rate, error) {
	c.oracle.Reset()
	for _, inc := range c.incs {
		if c.active(inc) {
			c.oracle.Add(inc.s.demand, inc.path)
		}
	}
	return c.oracle.Solve()
}

// Task is what Check reads of a link task (a core.RouterLink).
type Task interface {
	CheckInvariants() error
	Stable() bool
}

// Check validates a quiescent transport as the paper validates every run:
// each Active incarnation is not departed (ErrStaleIncarnation), is routed
// over up links and holds a confirmed rate (rateOf) equal to the oracle's,
// and each link task is consistent and stable (Definition 2). crossCheck
// first checks the oracle against waterfill.WaterFilling and Verify.
func (c *Controller) Check(rateOf func(core.SessionID) (r rate.Rate, ok, converged bool), tasks iter.Seq2[graph.LinkID, Task], crossCheck bool) error {
	want, err := c.Oracle()
	if err == nil && crossCheck {
		err = c.oracle.CrossCheck(want)
	}
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	k := 0
	for _, inc := range c.incs {
		if !c.active(inc) {
			continue
		}
		got, ok, converged := rateOf(inc.id)
		switch {
		case inc.departed:
			return fmt.Errorf("session %d: %w", inc.id, ErrStaleIncarnation)
		case !c.up(inc.path):
			return fmt.Errorf("session %d is routed over a failed link", inc.id)
		case !ok:
			return fmt.Errorf("session %d has no rate after quiescence", inc.id)
		case !got.Equal(want[k]):
			return fmt.Errorf("session %d rate %v, oracle %v", inc.id, got, want[k])
		case !converged:
			return fmt.Errorf("session %d rate not confirmed (no bottleneck received)", inc.id)
		}
		k++
	}
	for l, t := range tasks {
		if err := t.CheckInvariants(); err != nil {
			return fmt.Errorf("link %d: %w", l, err)
		} else if !t.Stable() {
			return fmt.Errorf("link %d unstable after quiescence", l)
		}
	}
	return nil
}

// start joins s on path: on its current incarnation if that never carried a
// Join, on a fresh one otherwise. reconf opens the incarnation's span.
func (c *Controller) start(s *session, path graph.Path, reconf bool) {
	must(s.state != Active, "Start of an active session", s.cur.id)
	inc := s.cur
	if inc.joined && !buggyRejoinReuse {
		inc = c.mint(s, path)
	}
	inc.path, inc.joined, s.state = path, true, Active
	if reconf {
		c.span(inc, 0)
	}
	c.acts = append(c.acts, Action{Kind: Start, ID: inc.id, Path: path, Demand: s.demand})
}

// move force-departs an active incarnation and starts its session on path,
// counting the move in *n, or strands it if err says there is no path.
func (c *Controller) move(inc *incarnation, path graph.Path, err error, n *uint64) {
	c.span(inc, c.packets(inc.id))
	c.depart(inc)
	if err != nil {
		c.strand(inc.s)
		return
	}
	*n++
	c.start(inc.s, path, true)
}

// span counts inc's packets past base until quiescence, unless one does.
func (c *Controller) span(inc *incarnation, base uint64) {
	if !inc.counted {
		inc.counted, inc.base = true, base
		c.spans = append(c.spans, inc)
	}
}

// depart makes an active incarnation leave; its session becomes Idle.
func (c *Controller) depart(inc *incarnation) {
	must(c.active(inc), "Leave of an inactive incarnation", inc.id)
	inc.departed, inc.s.state = true, Idle
	c.acts = append(c.acts, Action{Kind: Leave, ID: inc.id})
}

func (c *Controller) strand(s *session) {
	must(s.state != Stranded, "strand of a stranded session", s.cur.id)
	s.state = Stranded
	c.stranded = append(c.stranded, s)
}

func must(ok bool, what string, id core.SessionID) {
	if !ok {
		panic(fmt.Sprintf("control: %s (incarnation %d)", what, id))
	}
}

func (c *Controller) up(p graph.Path) bool {
	return !slices.ContainsFunc(p, func(l graph.LinkID) bool { return !c.g.LinkUp(l) })
}

func crosses(p graph.Path, links map[graph.LinkID]bool) bool {
	return slices.ContainsFunc(p, func(l graph.LinkID) bool { return links[l] })
}
