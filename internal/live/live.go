// Package live runs the B-Neck protocol as a genuinely concurrent system:
// every protocol task (each session's source and destination, and each
// directed link's router task) is an actor — an unbounded FIFO mailbox and a
// handler that runs one message at a time — the deployment shape the paper
// describes: asynchronous tasks that execute their when-blocks atomically
// and exchange packets over FIFO links. Actors own no goroutine: the send
// that finds one idle claims it, so a cascade runs on the goroutine its API
// call started and concurrent calls are the parallelism (DESIGN.md §3).
//
// Quiescence, the paper's headline property, becomes observable termination:
// an activity counter tracks the live workers — the goroutines that drain
// claimed actors — and WaitQuiescent blocks until none is left, which is
// network silence (see activityCounter).
//
// The runtime supports dynamic topologies: SetLinkCapacity reconfigures a
// link's router task in place (the crossing sessions re-probe), and
// FailLinks/RestoreLinks migrate affected sessions through the protocol's own
// Leave → reroute → Join, a fresh incarnation (new session ID, new path) per
// reroute so the two incarnations' in-flight packets can never interfere.
// Sessions with no surviving path are stranded and rejoin on restore. An
// optional path re-optimization policy (SetPathPolicy, see control.Policy)
// migrates sessions back onto shorter paths when restores re-enable them.
// Every one of those decisions, and every session lifecycle transition, is
// made by the control plane the simulator transport shares
// (internal/control), called under the runtime mutex; the runtime applies
// the actions it returns on its actors. Validate is the same control plane's
// Check over the incarnations' granted rates and the link tasks. See
// DESIGN.md §6, §11.
//
// Mailboxes are unbounded by design: B-Neck generates bounded traffic per
// reconfiguration, and bounded mailboxes could deadlock the bidirectional
// packet flow (links send both up- and downstream).
//
// The runtime's locking is two-tier: topology mutation and session
// lifecycle serialize on one mutex, while a packet hop takes the target's
// mailbox lock and otherwise only atomics — see Runtime.
package live

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bneck/internal/control"
	"bneck/internal/core"
	"bneck/internal/graph"
	"bneck/internal/rate"
)

// Runtime hosts a concurrent B-Neck deployment over a mutable graph.
//
// Locking is two-tier. The cold path — session lifecycle, topology
// mutation, migration, validation and the table readers — serializes on mu,
// so concurrent reconfigurations never interleave half-applied. The hot
// path — Emit, one call per packet per hop across every actor — takes one
// lock, the target's mailbox, otherwise only atomics, and wakes nobody (a
// target found idle joins the emitting worker's own list): the emitting task
// already holds its packet's incarnation (each task owns its emitter), and
// the incarnation's hop table names the target actor and the link's packet
// counters. A link task emitting for a session other than its packet's (an
// Update to the sessions a bottleneck change affects) loads that
// incarnation from incs, which takes no lock. The rate upcall a source task
// fires per λ-change writes its own incarnation's rate under that
// incarnation's leaf lock.
//
// No handler ever takes mu, and no caller holding mu runs a handler (a
// claim made under mu starts a worker). An incarnation's actors and hop
// table are created, with the link records and actors it points to, under
// mu by the call that enqueues its Join (start), before any of its packets
// exists: lazily, from inside a handler, the first packet on a link would
// wait behind a running FailLinks. Creating them at Join and not at
// NewSession keeps session set-up cheap and creates exactly the actors a
// Join cascade would have reached. Because every creation holds mu,
// SetLinkCapacity (which holds mu too) either lands in the capacity a new
// task is built with or finds the installed actor.
//
// Lock order: mu → rate → actor mailbox. Emit never holds two locks at
// once, and nothing acquires mu while holding a rate lock. The order is
// machine-checked by bnecklint's lockorder analyzer through the
// //bneck:lock tier annotations below (DESIGN.md §12, "Machine-enforced
// invariants").
type Runtime struct {
	g *graph.Graph

	mu sync.Mutex //bneck:lock mu
	// ctl owns the session registry, the resolver, the topology reactions
	// and their counters; apply executes its actions. Guarded by mu.
	ctl    *control.Controller
	closed bool

	activity *activityCounter

	// links holds each directed link's record by link ID, nil for a link no
	// joined incarnation's packets can cross in either direction. Grown
	// (links may be added to g after New) and filled under mu; records are
	// never removed.
	links []*linkRec
	// incs maps a session ID to its incarnation: stored under mu by start,
	// deleted under mu when reclaimed, loaded without a lock by Emit.
	incs sync.Map
}

// linkRec is one directed link: its packet counter (the live twin of the
// simulator's per-wire counters), which hop tables point at and Emit bumps
// without a lock, and, once a joined incarnation's path crosses the link,
// the actor hosting its router task.
type linkRec struct {
	pkts atomic.Uint64
	a    *actor
	task *core.RouterLink
}

// LinkCount is one directed link's packet total (Runtime.LinkPackets).
type LinkCount struct {
	Link    graph.LinkID
	Packets uint64
}

// hopRef is what Emit needs about one link of an incarnation's path: the
// actor hosting the link's router task and the packet counters of the link
// and of its reverse.
type hopRef struct {
	task     *actor
	fwd, rev *atomic.Uint64
}

// incarnation is one started protocol lifetime of a session: a session ID,
// the actors hosting its source and destination tasks, and the rate granted
// to it. The controller decides when one starts and departs, and holds its
// path; a departed one is reclaimed at the next quiescence.
type incarnation struct {
	id   core.SessionID
	src  *actor
	dst  *actor
	srcT *core.SourceNode // src's task, for Validate's converged read
	// hops[i] serves path[i]. Written once, under mu, before the
	// incarnation's Join is enqueued; every Emit for the incarnation is a
	// consequence of that message, so handlers read it without a lock.
	hops []hopRef
	// pkts counts the packets sent across physical links on this
	// incarnation's behalf. Bumped by Emit from any worker goroutine, hence
	// atomic; everything else reads it under mu.
	pkts atomic.Uint64
	// reclaimed marks an incarnation whose actors were stopped after its
	// Leave cascade drained. Set under mu; atomic because Emit checks it on
	// a worker goroutine.
	reclaimed atomic.Bool
	// lambda is the last rate the source task's upcall granted, once granted
	// is set. The upcall writes them from the source's handler; readers hold
	// mu. Both sides hold rmu.
	rmu     sync.Mutex //bneck:lock rate
	lambda  rate.Rate
	granted bool
}

// New returns a runtime over g. The runtime owns g's mutable state: apply
// topology changes only through SetLinkCapacity/FailLinks/RestoreLinks (the
// node/link structure itself must be complete before traffic flows).
func New(g *graph.Graph) *Runtime {
	rt := &Runtime{g: g, activity: newActivityCounter()}
	rt.ctl = control.New(g, func(id core.SessionID) uint64 { return rt.incarnationFor(id).pkts.Load() })
	return rt
}

// SetPathPolicy installs the path re-optimization policy. The default is
// control.Pinned. Install it before topology events fire; the policy itself
// is applied under the runtime mutex, so the call is safe at any time.
func (rt *Runtime) SetPathPolicy(p control.Policy) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.ctl.Policy = p
}

// incarnationFor returns the incarnation registered under a session ID (nil
// when never started, or retired and reclaimed). It takes no lock; Emit
// needs it only when a link task emits for a session other than its
// packet's.
func (rt *Runtime) incarnationFor(id core.SessionID) *incarnation {
	v, _ := rt.incs.Load(id)
	inc, _ := v.(*incarnation)
	return inc
}

// setRate is the source task's rate upcall: one leaf lock, no lookup.
//
//bneck:locks rate
func (inc *incarnation) setRate(_ core.SessionID, lambda rate.Rate) {
	inc.rmu.Lock()
	inc.lambda, inc.granted = lambda, true
	inc.rmu.Unlock()
}

// rate reads the incarnation's granted rate.
//
//bneck:locks rate
func (inc *incarnation) rate() (rate.Rate, bool) {
	inc.rmu.Lock()
	defer inc.rmu.Unlock()
	return inc.lambda, inc.granted
}

// Session is a logical session between two hosts. Reroutes change its
// incarnation (ID and path) but not its identity.
type Session struct {
	rt *Runtime
	id core.SessionID // the controller's key: the first incarnation's ID
}

// HostPath returns a shortest path from host src to host dst, resolved by
// the resolver the runtime's own dynamics (migration, readmission,
// re-optimization) use. Callers that place sessions through it get the
// paths those dynamics would pick without keeping a resolver of their own.
func (rt *Runtime) HostPath(src, dst graph.NodeID) (graph.Path, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ctl.HostPath(src, dst)
}

// NewSession creates a session along path (see HostPath). Its actors come to
// exist at its first Join.
func (rt *Runtime) NewSession(path graph.Path) (*Session, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return nil, fmt.Errorf("live: runtime closed")
	}
	if err := graph.ValidatePath(rt.g, path); err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	src, dst := rt.g.Link(path[0]).From, rt.g.Link(path[len(path)-1]).To
	return &Session{rt: rt, id: rt.ctl.Register(src, dst, append(graph.Path(nil), path...))}, nil
}

// current returns the session's current incarnation ID and its state.
func (s *Session) current() (core.SessionID, control.State) {
	s.rt.mu.Lock()
	defer s.rt.mu.Unlock()
	return s.rt.ctl.Current(s.id), s.rt.ctl.State(s.id)
}

// ID returns the session's current protocol identifier (reroutes change it).
func (s *Session) ID() core.SessionID {
	id, _ := s.current()
	return id
}

// Path returns the session's current path. The caller must not modify it.
func (s *Session) Path() graph.Path {
	s.rt.mu.Lock()
	defer s.rt.mu.Unlock()
	return s.rt.ctl.Path(s.rt.ctl.Current(s.id))
}

// State returns the session's lifecycle state.
func (s *Session) State() control.State {
	_, st := s.current()
	return st
}

// Stranded reports whether the session is parked without a path after a link
// failure.
func (s *Session) Stranded() bool { return s.State() == control.Stranded }

// Active reports whether the session has joined, not left, and is not
// stranded by a link failure.
func (s *Session) Active() bool { return s.State() == control.Active }

// Join asynchronously invokes API.Join(s, demand); on a joined session it
// is a Change (internal/control). A demand ≤ 0 is an error; nothing changes.
//
// Join, Leave and Change call the controller while holding rt.mu, so a
// concurrent topology event (FailLinks, which also holds rt.mu while it
// migrates) cannot slip between reading the current incarnation and the
// enqueue — otherwise a Join could land in a retired incarnation's mailbox
// after its migration Leave and resurrect it on a failed path. The
// established lock order rt.mu → actor.mu makes the nested enqueue safe. On
// a closed runtime all three are no-ops.
func (s *Session) Join(demand rate.Rate) error {
	s.rt.mu.Lock()
	defer s.rt.mu.Unlock()
	if err := control.CheckDemand(demand); s.rt.closed || err != nil {
		return s.rt.apply(nil, err)
	}
	return s.rt.apply(s.rt.ctl.Join(s.id, demand), nil)
}

// Leave asynchronously invokes API.Leave(s). See Join for the locking
// discipline.
func (s *Session) Leave() {
	s.rt.mu.Lock()
	defer s.rt.mu.Unlock()
	if !s.rt.closed {
		s.rt.apply(s.rt.ctl.Leave(s.id), nil)
	}
}

// Change asynchronously invokes API.Change(s, demand). See Join for the
// locking discipline and the demands it rejects.
func (s *Session) Change(demand rate.Rate) error {
	s.rt.mu.Lock()
	defer s.rt.mu.Unlock()
	if err := control.CheckDemand(demand); s.rt.closed || err != nil {
		return s.rt.apply(nil, err)
	}
	return s.rt.apply(s.rt.ctl.Change(s.id, demand), nil)
}

// Rate returns the session's last granted rate. Safe to call from any
// goroutine; stable once WaitQuiescent has returned.
func (s *Session) Rate() (rate.Rate, bool) {
	s.rt.mu.Lock()
	defer s.rt.mu.Unlock()
	if s.rt.ctl.State(s.id) != control.Active {
		return rate.Zero, false
	}
	return s.rt.incarnationFor(s.rt.ctl.Current(s.id)).rate()
}

// SetLinkCapacity changes the capacity of the given directed links (pass a
// link and its reverse for a duplex reconfiguration); crossing sessions
// re-probe. Reconfigure only links that are up: on a failed one the re-probe
// races its departing sessions' teardown (scenario scripts cannot, and the
// simulator assumes the same). An unknown link or a non-positive capacity
// is an error, and nothing changes.
//
//bneck:locks mailbox
func (rt *Runtime) SetLinkCapacity(c rate.Rate, links ...graph.LinkID) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	// The links' tasks re-probe first, then the controller acts.
	if err := rt.ctl.CheckLinks(c, links); rt.closed || err != nil {
		return rt.apply(nil, err)
	}
	for _, l := range links {
		if int(l) < len(rt.links) && rt.links[l] != nil && rt.links[l].a != nil {
			rt.links[l].a.enqueue(message{kind: msgSetCapacity, pkt: core.Packet{Rate: c}}, nil)
		}
	}
	return rt.apply(rt.ctl.SetCapacity(c, links))
}

// FailLinks takes the given directed links down and migrates crossing
// sessions onto surviving paths (or strands them). All listed links fail
// before any session reroutes. An unknown link is an error, and a no-op.
func (rt *Runtime) FailLinks(links ...graph.LinkID) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return nil
	}
	return rt.apply(rt.ctl.Fail(links))
}

// RestoreLinks brings the given directed links back up and readmits stranded
// sessions whose hosts are reconnected. Routed sessions keep their pinned
// paths under the default Pinned policy; under ReoptimizeOnRestore
// (SetPathPolicy) the restore also sweeps the active population and
// migrates sessions back onto shorter paths. An unknown link is an error.
func (rt *Runtime) RestoreLinks(links ...graph.LinkID) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return nil
	}
	return rt.apply(rt.ctl.Restore(links))
}

// Migrations returns how many session reroutes link failures have forced.
// Policy-driven reroutes are counted separately by Reoptimizations.
func (rt *Runtime) Migrations() uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ctl.Migrations()
}

// Reoptimizations returns how many sessions the path policy migrated back
// onto shorter paths (zero under the default Pinned policy).
func (rt *Runtime) Reoptimizations() uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ctl.Reoptimizations()
}

// ReconfigPackets returns the cumulative control-packet cost of topology
// reconfigurations (control.Controller.ReconfigPackets), updated by
// WaitQuiescent; user churn is never counted.
func (rt *Runtime) ReconfigPackets() uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ctl.ReconfigPackets()
}

// WaitQuiescent blocks until no message is queued or being processed
// anywhere — the paper's quiescence. It returns immediately if the network
// is already silent.
//
// Quiescence is also the reclamation point: an incarnation retired by a
// migration Leave, a departure or a stranding has, by definition, drained
// its Leave cascade once the network is silent, so its two actors are
// stopped and the incarnation is dropped. Actor counts therefore return to
// baseline after churn instead of accumulating until Close.
//
// Callers racing WaitQuiescent against concurrent Join/Leave/Change calls
// from other goroutines can observe a transiently idle network; make sure
// all API calls have returned (they enqueue synchronously) before waiting.
func (rt *Runtime) WaitQuiescent() {
	rt.activity.wait()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.ctl.Quiesced()
	if !rt.closed {
		rt.reclaimRetired()
	}
}

// reclaimRetired stops and drops the actors of every incarnation that can
// never process protocol traffic again: every departed one — superseded by
// a migration, left through Leave, or stranded by a failure — and its
// granted rate with it. Callers hold mu and have seen the network quiescent
// (no message in flight can target a retired incarnation).
//
//bneck:locks mailbox
func (rt *Runtime) reclaimRetired() {
	rt.incs.Range(func(_, v any) bool {
		if inc := v.(*incarnation); rt.ctl.Departed(inc.id) {
			inc.reclaimed.Store(true)
			inc.src.stop()
			inc.dst.stop()
			rt.incs.Delete(inc.id)
		}
		return true
	})
}

// Incarnations returns how many session incarnations currently hold live
// actors (reclaimed ones are gone; see WaitQuiescent).
func (rt *Runtime) Incarnations() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n := 0
	rt.incs.Range(func(_, _ any) bool { n++; return true })
	return n
}

// LinkPackets returns per-directed-link packet totals for every link that
// carried traffic, ordered by link ID. Each counter is read atomically, so
// a call that races traffic sees every link at some recent value, and one
// made after WaitQuiescent sees the exact totals.
func (rt *Runtime) LinkPackets() []LinkCount {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out []LinkCount
	for id, l := range rt.links {
		if l == nil {
			continue
		}
		if n := l.pkts.Load(); n > 0 {
			out = append(out, LinkCount{Link: graph.LinkID(id), Packets: n})
		}
	}
	return out
}

// Rates returns a snapshot of the granted rates of the incarnations that
// have not departed, keyed by incarnation ID.
func (rt *Runtime) Rates() map[core.SessionID]rate.Rate {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[core.SessionID]rate.Rate)
	rt.incs.Range(func(_, v any) bool {
		inc := v.(*incarnation)
		if r, ok := inc.rate(); ok && !rt.ctl.Departed(inc.id) {
			out[inc.id] = r
		}
		return true
	})
	return out
}

// Validate checks, after WaitQuiescent, every active session's granted rate
// and every link task's stability — control.Check, over the live deployment.
// It holds mu throughout, so concurrent Validates queue up on it, and Check's
// link sweep (DESIGN.md §8) sees no insertion: every insertion holds mu.
func (rt *Runtime) Validate() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if err := rt.ctl.Check(rt.rateOf, rt.tasks, false); err != nil {
		return fmt.Errorf("live: %w", err)
	}
	return nil
}

// rateOf reads incarnation id's granted rate and whether its source task
// holds it confirmed.
//
// The source task's state, like the link tasks' state Check reads through
// tasks, is read without a lock, and safely: every handler's writes
// precede its worker's exit decrement of the activity counter, every change
// of the counter is a read-modify-write of one atomic — so each is ordered
// after all before it, a release sequence in C11 terms — and WaitQuiescent
// returned because it read the zero the last of them wrote. That load
// therefore happens after every handler that has run, and these reads after
// it.
//
//bneck:locks rate
func (rt *Runtime) rateOf(id core.SessionID) (rate.Rate, bool, bool) {
	inc := rt.incarnationFor(id)
	if inc == nil {
		return rate.Zero, false, false // reclaimed as departed; Check reports it as such
	}
	r, ok := inc.rate()
	return r, ok, inc.srcT.Converged()
}

// tasks walks the link tasks in link order. Callers hold mu, which every
// insertion holds.
func (rt *Runtime) tasks(yield func(graph.LinkID, control.Task) bool) {
	for id, l := range rt.links {
		if l != nil && l.a != nil && !yield(graph.LinkID(id), l.task) {
			return
		}
	}
}

// Close stops all actors. The runtime must be quiescent (WaitQuiescent).
func (rt *Runtime) Close() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return
	}
	rt.closed = true
	for _, l := range rt.links {
		if l != nil && l.a != nil {
			l.a.stop()
		}
	}
	rt.incs.Range(func(_, v any) bool {
		inc := v.(*incarnation)
		inc.src.stop()
		inc.dst.stop()
		return true
	})
}

// apply executes the controller's actions in order, or reports the bad
// input that stopped a topology operation. Callers hold mu.
//
//bneck:locks mailbox
func (rt *Runtime) apply(acts []control.Action, err error) error {
	if err != nil {
		return fmt.Errorf("live: %w", err)
	}
	for _, a := range acts {
		switch a.Kind {
		case control.Start:
			rt.start(a.ID, a.Path, a.Demand)
		case control.Leave:
			rt.incarnationFor(a.ID).src.enqueue(message{kind: msgLeave}, nil)
		case control.Change:
			rt.incarnationFor(a.ID).src.enqueue(message{kind: msgChange, pkt: core.Packet{Rate: a.Demand}}, nil)
		}
	}
	return nil
}

// start creates incarnation id — its two actors and its hop table, with the
// link records and link actors of every link on the path that no
// incarnation crossed before — publishes it in incs and enqueues its Join,
// the only place one is enqueued. It is the twin of the simulator
// transport's resolveHops: tasks materialize in the caller, under mu,
// before the first packet exists, so Emit only ever indexes a finished
// table.
//
//bneck:locks mailbox
func (rt *Runtime) start(id core.SessionID, path graph.Path, demand rate.Rate) {
	inc := &incarnation{id: id, hops: make([]hopRef, len(path))}
	for i, l := range path {
		inc.hops[i] = hopRef{task: rt.linkActor(l), fwd: &rt.link(l).pkts,
			rev: &rt.link(rt.g.LinkReverse(l)).pkts}
	}
	// An endpoint task only ever emits for its session: its emitter is fixed.
	srcEm, dstEm := &emitter{rt: rt, cur: inc}, &emitter{rt: rt, cur: inc}
	srcT := core.NewSourceNode(id, srcEm, inc.setRate)
	dstT := core.NewDestinationNode(id, dstEm)
	inc.srcT = srcT
	// The controller issues Join, Change and Leave only in an order the
	// task's state machine accepts; anything else panics in the task.
	inc.src = &actor{acts: rt.activity, handle: func(m *message) {
		switch m.kind {
		case msgPacket:
			srcT.Receive(m.pkt)
		case msgJoin:
			srcT.Join(m.pkt.Rate)
		case msgLeave:
			srcT.Leave()
		case msgChange:
			srcT.Change(m.pkt.Rate)
		}
	}}
	hop := len(path) + 1
	inc.dst = &actor{acts: rt.activity, handle: func(m *message) { dstT.Receive(m.pkt, hop) }}
	srcEm.self, dstEm.self = inc.src, inc.dst
	rt.incs.Store(id, inc)
	inc.src.enqueue(message{kind: msgJoin, pkt: core.Packet{Rate: demand}}, nil)
}

// link returns directed link id's record, creating it, and growing the
// table to the graph's link count, if needed. Callers hold mu.
func (rt *Runtime) link(id graph.LinkID) *linkRec {
	if int(id) >= len(rt.links) {
		rt.links = append(rt.links, make([]*linkRec, rt.g.NumLinks()-len(rt.links))...)
	}
	if rt.links[id] == nil {
		rt.links[id] = new(linkRec)
	}
	return rt.links[id]
}

// linkActor returns (creating if needed) the actor hosting the RouterLink
// task of a directed link. Callers hold mu, which excludes SetLinkCapacity
// for the whole read-capacity-and-install sequence — a reconfiguration
// therefore either lands in the capacity the new task is built with, or
// finds the installed actor and enqueues its re-probe.
func (rt *Runtime) linkActor(id graph.LinkID) *actor {
	l := rt.link(id)
	if l.a != nil {
		return l.a
	}
	// A link task emits for whichever session its current packet belongs to;
	// the handler points the task's emitter at that incarnation first.
	em := &emitter{rt: rt}
	task := core.NewRouterLink(core.LinkRef(id), rt.g.Capacity(id), em)
	l.task = task
	l.a = &actor{acts: rt.activity, handle: func(m *message) {
		switch m.kind {
		case msgPacket:
			em.cur = m.inc
			task.Receive(m.pkt, int(m.hop))
		case msgSetCapacity:
			em.cur = nil // the re-probes go to whoever crosses the link
			task.SetCapacity(m.pkt.Rate)
		}
	}}
	em.self = l.a
	return l.a
}

// emitter adapts the Runtime to core.Emitter for one task. Emissions always
// happen inside an actor's handler, on a live worker, so the activity
// counter can never reach zero while a cascade is in flight.
//
// cur is the incarnation the task is most likely to emit for: fixed for a
// session's endpoint tasks, set by a link actor's handler from the message
// being handled. self is the actor hosting the task; what the task's
// emissions claim goes to self.w. Only self's claim holder touches either.
type emitter struct {
	rt   *Runtime
	cur  *incarnation
	self *actor
}

// Emit implements core.Emitter. This is the hottest call site of the whole
// runtime — every packet of every hop of every session goes through it, from
// every worker goroutine concurrently — so it takes no lock but the target's
// mailbox: the incarnation is at hand (or one lock-free load away, when a
// link task emits for a session other than its packet's), and its hop
// table, immutable once the Join is enqueued, holds the target actor and
// the counters of the link the packet crosses.
func (e *emitter) Emit(s core.SessionID, from int, dir core.Direction, pkt core.Packet) {
	inc := e.cur
	if inc == nil || inc.id != s {
		inc = e.rt.incarnationFor(s)
	}
	if inc == nil || inc.reclaimed.Load() {
		return // retired and reclaimed; stragglers dissolve
	}
	// hops[i] serves path[i], whose task sits at hop i+1. A packet accounts
	// the physical link it crosses (intra-host hand-offs, to and from the
	// source task, have no wire) — exactly the simulator's per-link counting
	// rule: downstream out of hop from ≥ 1 that is path[from-1], upstream
	// out of hop from ≥ 2 the reverse of path[from-2].
	hops := inc.hops
	target, hop := inc.src, 0
	if dir == core.Down {
		if from >= 1 {
			hops[from-1].fwd.Add(1)
			inc.pkts.Add(1)
		}
		if hop = from + 1; from < len(hops) {
			target = hops[from].task
		} else {
			target = inc.dst
		}
	} else if from >= 2 {
		h := &hops[from-2]
		h.rev.Add(1)
		inc.pkts.Add(1)
		target, hop = h.task, from-1
	}
	target.enqueue(message{kind: msgPacket, hop: int32(hop), pkt: pkt, inc: inc}, e.self.w)
}

type msgKind uint8

const (
	msgPacket msgKind = iota + 1
	msgJoin
	msgLeave
	msgChange
	msgSetCapacity
)

// message is one 64-byte cache line. A Join's or a Change's demand, or a
// msgSetCapacity's new capacity, rides in pkt.Rate.
type message struct {
	kind msgKind
	hop  int32
	pkt  core.Packet
	// inc is the incarnation a msgPacket was emitted for; the receiving link
	// actor's emitter starts from it.
	inc *incarnation
}
