// Package control is the control plane both transports share: session
// lifecycle and the reactions to topology events, carried out through
// B-Neck's Join, Leave and Change (a rerouted session Leaves, and a
// successor incarnation with a fresh ID Joins on the new path). A transport
// (internal/network, internal/live) executes a Controller's decisions from
// its serial context: a simulator event, or under the live runtime's
// mutex. DESIGN.md §6 has the transition table and the ordering rules; §8
// the quiescent-state check (Check) both transports validate with.
package control

import (
	"errors"
	"fmt"
	"iter"
	"slices"

	"bneck/internal/core"
	"bneck/internal/graph"
	"bneck/internal/policy"
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

// Transport executes the controller's decisions on one transport.
type Transport interface {
	// Start joins incarnation id (new, or its session's first) on path.
	Start(id core.SessionID, path graph.Path, demand rate.Rate)
	Leave(id core.SessionID)                    // active incarnation id leaves
	Change(id core.SessionID, demand rate.Rate) // active incarnation id's new demand
	SetCapacity(l graph.LinkID, c rate.Rate)    // reconfigure link l's task, if any
	Packets(id core.SessionID) uint64           // packets id sent across links
}

// Controller is the control plane over one graph and one transport.
type Controller struct {
	Policy   policy.Config // path re-optimization (policy.Pinned by default)
	g        *graph.Graph
	res      *graph.Resolver
	t        Transport
	incs     []*incarnation // incs[id-1]: IDs are minted 1, 2, … in creation order
	stranded []*session     // in strand order

	migrated, reoptimized, reconfig uint64
	// spans are the open reconfiguration spans, from a forced Leave or a
	// topology-driven Start to the next quiescence (Quiesced).
	spans  []*incarnation
	oracle waterfill.Assembler[graph.LinkID] // Oracle's scratch, kept between calls
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

// New returns a controller over g that acts through t.
func New(g *graph.Graph, t Transport) *Controller {
	capacity := func(l graph.LinkID) rate.Rate { return g.Link(l).Capacity }
	oracle := waterfill.Assembler[graph.LinkID]{Capacity: capacity}
	return &Controller{g: g, res: graph.NewResolver(g, 256), t: t, oracle: oracle}
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

// Reads by incarnation ID: how many exist (IDs run 1 to Len), the current
// incarnation of id's session, its state, whether id carries it while
// Active, whether a Leave was issued to id, and id's path.
func (c *Controller) Len() int                                 { return len(c.incs) }
func (c *Controller) Current(id core.SessionID) core.SessionID { return c.incs[id-1].s.cur.id }
func (c *Controller) State(id core.SessionID) State            { return c.incs[id-1].s.state }
func (c *Controller) Active(id core.SessionID) bool            { return c.active(c.incs[id-1]) }
func (c *Controller) Departed(id core.SessionID) bool          { return c.incs[id-1].departed }
func (c *Controller) Path(id core.SessionID) graph.Path        { return c.incs[id-1].path }

func (c *Controller) active(inc *incarnation) bool { return inc.s.state == Active && inc.s.cur == inc }

// Counters: parked sessions, forced reroutes, policy moves, span packets.
func (c *Controller) Stranded() int           { return len(c.stranded) }
func (c *Controller) Migrations() uint64      { return c.migrated }
func (c *Controller) Reoptimizations() uint64 { return c.reoptimized }
func (c *Controller) ReconfigPackets() uint64 { return c.reconfig }

// Join asks for demand on id's session. An idle session joins on its path,
// rerouted around failed links, or strands; a joined one takes a Change.
func (c *Controller) Join(id core.SessionID, demand rate.Rate) {
	s := c.incs[id-1].s
	if s.state != Idle {
		c.Change(id, demand)
		return
	}
	s.demand = demand
	path, err := s.cur.path, error(nil)
	if !c.up(path) {
		path, err = c.res.HostPath(s.src, s.dst)
	}
	if err != nil {
		c.strand(s)
		return
	}
	c.start(s, path, false)
}

// Leave takes id's session out: an active one through the protocol's Leave,
// a stranded one off the strand list. It dissolves on an idle session.
func (c *Controller) Leave(id core.SessionID) {
	switch s := c.incs[id-1].s; {
	case s.state == Stranded && !buggyLeaveSkipsUnstrand:
		i := slices.Index(c.stranded, s)
		must(i >= 0, "Leave of a stranded session that is not parked", id)
		c.stranded = slices.Delete(c.stranded, i, i+1)
		s.state = Idle
	case s.state == Active:
		c.depart(s.cur)
	}
}

// Change sets the demand of id's session, through the protocol when it is
// active, for its readmission when stranded; it dissolves when idle.
func (c *Controller) Change(id core.SessionID, demand rate.Rate) {
	if s := c.incs[id-1].s; s.state != Idle {
		s.demand = demand
		if s.state == Active {
			c.t.Change(s.cur.id, demand)
		}
	}
}

// Fail takes links down, then moves every active session crossing one onto
// a surviving path or strands it (every Start picks an up path).
func (c *Controller) Fail(links []graph.LinkID) {
	for _, l := range links {
		c.g.FailLink(l)
	}
	for _, inc := range c.incs {
		if c.active(inc) && !c.up(inc.path) {
			path, err := c.res.HostPath(inc.s.src, inc.s.dst)
			c.move(inc, path, err, &c.migrated)
		}
	}
}

// Restore brings links back up, readmits the stranded sessions a path now
// reaches, and lets the path policy sweep the active ones.
func (c *Controller) Restore(links []graph.LinkID) {
	restored := false
	for _, l := range links {
		restored = !c.g.LinkUp(l) || restored
		c.g.RestoreLink(l)
	}
	if !restored {
		return
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
}

// SetCapacity sets links' capacity; a policy upgrade sweeps the sessions.
func (c *Controller) SetCapacity(cp rate.Rate, links []graph.LinkID) {
	upgraded := map[graph.LinkID]bool{}
	for _, l := range links {
		if c.Policy.CapacityTriggers(c.g.Link(l).Capacity, cp) {
			upgraded[l] = true
		}
		c.g.SetCapacity(l, cp)
		c.t.SetCapacity(l, cp)
	}
	if len(upgraded) > 0 {
		c.reoptimize(upgraded)
	}
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
		if err == nil && c.Policy.ShouldMigrate(len(inc.path), len(best), crosses(best, upgraded)) {
			c.move(inc, best, nil, &c.reoptimized)
		}
	}
}

// Quiesced closes the open reconfiguration spans. Call it at quiescence.
func (c *Controller) Quiesced() {
	for _, inc := range c.spans {
		c.reconfig += c.t.Packets(inc.id) - inc.base
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
	c.t.Start(inc.id, path, s.demand)
}

// move force-departs an active incarnation and starts its session on path,
// counting the move in *n, or strands it if err says there is no path.
func (c *Controller) move(inc *incarnation, path graph.Path, err error, n *uint64) {
	c.span(inc, c.t.Packets(inc.id))
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
	c.t.Leave(inc.id)
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
