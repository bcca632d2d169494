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
// a global activity counter tracks enqueued-but-unprocessed messages
// (a counter-based variant of Dijkstra–Scholten termination detection,
// possible here because all sends happen inside message handlers), and
// WaitQuiescent blocks until the network goes silent. The counter is one
// atomic; its mutex is touched only when the count reaches zero and by
// waiters (see activityCounter).
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
// Check over the runtime's rate ledger and link tasks. See DESIGN.md §6, §11.
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
	"sort"
	"sync"
	"sync/atomic"

	"bneck/internal/control"
	"bneck/internal/core"
	"bneck/internal/graph"
	"bneck/internal/metrics"
	"bneck/internal/rate"
)

// Runtime hosts a concurrent B-Neck deployment over a mutable graph.
//
// Locking is two-tier. The cold path — session lifecycle, topology
// mutation, migration, validation — serializes on mu, so concurrent
// reconfigurations never interleave half-applied. The hot path — Emit, one
// call per packet per hop across every actor — takes one lock, the target's
// mailbox, otherwise only atomics, and wakes nobody (a target found idle
// joins the emitting worker's own list): the emitting task already holds
// its packet's incarnation (each task owns its emitter), and the
// incarnation's hop table names the target actor and the link's packet
// counters. A link task emitting for a session other than its packet's (an
// Update to the sessions a bottleneck change affects) looks that
// incarnation up in one stripe of the incarnation table; the rate upcall
// every source task fires per λ-change writes the same stripe.
// Merge-on-demand readers (LinkPackets, Rates) gather the stripes.
//
// No handler ever takes mu or a link stripe, and no caller holding mu runs
// a handler (a claim made under mu starts a worker). An incarnation's
// actors and hop table are created, with the link actors and packet
// counters it points to, under mu by the call that enqueues its Join
// (start), before any of its packets exists: lazily, from inside
// a handler, the first packet on a link would wait behind a running
// FailLinks. Creating them at Join and not at NewSession keeps session
// set-up cheap and creates exactly the actors a Join cascade would have
// reached. Because every creation holds mu, SetLinkCapacity (which holds mu
// too) either lands in the capacity a new task is built with or finds the
// installed actor.
//
// Lock order: mu → domain stripe → actor mailbox. Emit never holds two
// locks at once, and nothing acquires mu while holding a stripe. The order
// is machine-checked by bnecklint's lockorder analyzer through the
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

	// incs shards the incarnation table and the granted-rate table by
	// session ID; lnks shards the link-actor table and the per-link packet
	// counters (the live twin of the simulator's per-wire counters) by link
	// ID. Entries of lnks are added only under mu (plus the stripe, for the
	// readers that do not hold mu) and never removed.
	incs [emitDomains]incDomain
	lnks [emitDomains]linkDomain
}

// emitDomains is the stripe count of the striped tables. A power of two so
// the stripe pick is a mask; 32 stripes keep the collision probability low
// at actor counts well past the paper's topologies.
const emitDomains = 32

type incDomain struct {
	mu sync.Mutex //bneck:lock stripe
	m  map[core.SessionID]*incarnation
	// rates holds the granted rates of this stripe's sessions. Rate upcalls
	// arrive from every source actor concurrently (one per λ-change per
	// session), so they are striped like the incarnation lookups of link
	// tasks emitting for a session other than their packet's.
	rates map[core.SessionID]rate.Rate
}

type linkDomain struct {
	mu     sync.Mutex //bneck:lock stripe
	actors map[graph.LinkID]*linkActor
	// pkts holds one counter per directed link some joined incarnation's
	// packets can cross, in either direction; hop tables point at them and
	// Emit bumps them without a lock.
	pkts map[graph.LinkID]*atomic.Uint64
}

type linkActor struct {
	a    *actor
	task *core.RouterLink
}

// hopRef is what Emit needs about one link of an incarnation's path: the
// actor hosting the link's router task and the packet counters of the link
// and of its reverse (nil when the link has none).
type hopRef struct {
	task     *actor
	fwd, rev *atomic.Uint64
}

func incStripe(id core.SessionID) int { return int(uint64(id) & (emitDomains - 1)) }
func linkStripe(id graph.LinkID) int  { return int(uint32(id) & (emitDomains - 1)) }

// incarnation is one started protocol lifetime of a session: a session ID
// and the actors hosting its source and destination tasks. The controller
// decides when one starts and departs, and holds its path; a departed one
// is reclaimed at the next quiescence.
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
}

// New returns a runtime over g. The runtime owns g's mutable state: apply
// topology changes only through SetLinkCapacity/FailLinks/RestoreLinks (the
// node/link structure itself must be complete before traffic flows).
func New(g *graph.Graph) *Runtime {
	rt := &Runtime{g: g, activity: newActivityCounter()}
	rt.ctl = control.New(g, func(id core.SessionID) uint64 { return rt.incarnationFor(id).pkts.Load() })
	for i := range rt.incs {
		rt.incs[i].m = make(map[core.SessionID]*incarnation)
		rt.incs[i].rates = make(map[core.SessionID]rate.Rate)
	}
	for i := range rt.lnks {
		rt.lnks[i].actors = make(map[graph.LinkID]*linkActor)
		rt.lnks[i].pkts = make(map[graph.LinkID]*atomic.Uint64)
	}
	return rt
}

// SetPathPolicy installs the path re-optimization policy. The default is
// control.Pinned. Install it before topology events fire; the policy itself
// is applied under the runtime mutex, so the call is safe at any time.
func (rt *Runtime) SetPathPolicy(cfg control.Policy) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.ctl.Policy = cfg
}

// incarnationFor returns the live incarnation registered under a session ID
// (nil when retired and reclaimed). One stripe lock; Emit needs it only when
// a link task emits for a session other than its packet's.
//
//bneck:locks stripe
func (rt *Runtime) incarnationFor(id core.SessionID) *incarnation {
	d := &rt.incs[incStripe(id)]
	d.mu.Lock()
	inc := d.m[id]
	d.mu.Unlock()
	return inc
}

// setRate records a granted rate from a source task's rate upcall. Hot
// path: upcalls arrive concurrently from every worker goroutine; one
// stripe lock each.
//
//bneck:locks stripe
func (rt *Runtime) setRate(id core.SessionID, lambda rate.Rate) {
	d := &rt.incs[incStripe(id)]
	d.mu.Lock()
	d.rates[id] = lambda
	d.mu.Unlock()
}

// dropRate forgets a departed incarnation's granted rate. Callers may hold
// rt.mu: mu → stripe is the established order.
//
//bneck:locks stripe
func (rt *Runtime) dropRate(id core.SessionID) {
	d := &rt.incs[incStripe(id)]
	d.mu.Lock()
	delete(d.rates, id)
	d.mu.Unlock()
}

// rateFor reads one session's granted rate. One stripe lock.
//
//bneck:locks stripe
func (rt *Runtime) rateFor(id core.SessionID) (rate.Rate, bool) {
	d := &rt.incs[incStripe(id)]
	d.mu.Lock()
	r, ok := d.rates[id]
	d.mu.Unlock()
	return r, ok
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
// is a Change (internal/control).
//
// Join, Leave and Change call the controller while holding rt.mu, so a
// concurrent topology event (FailLinks, which also holds rt.mu while it
// migrates) cannot slip between reading the current incarnation and the
// enqueue — otherwise a Join could land in a retired incarnation's mailbox
// after its migration Leave and resurrect it on a failed path. The
// established lock order rt.mu → actor.mu makes the nested enqueue safe. On
// a closed runtime all three are no-ops.
func (s *Session) Join(demand rate.Rate) {
	s.rt.mu.Lock()
	defer s.rt.mu.Unlock()
	if !s.rt.closed {
		s.rt.apply(s.rt.ctl.Join(s.id, demand), nil)
	}
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
// locking discipline.
func (s *Session) Change(demand rate.Rate) {
	s.rt.mu.Lock()
	defer s.rt.mu.Unlock()
	if !s.rt.closed {
		s.rt.apply(s.rt.ctl.Change(s.id, demand), nil)
	}
}

// Rate returns the session's last granted rate. Safe to call from any
// goroutine; stable once WaitQuiescent has returned.
func (s *Session) Rate() (rate.Rate, bool) {
	id, st := s.current()
	if st != control.Active {
		return rate.Zero, false
	}
	return s.rt.rateFor(id)
}

// SetLinkCapacity changes the capacity of the given directed links (pass a
// link and its reverse for a duplex reconfiguration); crossing sessions
// re-probe. Reconfigure only links that are up: on a failed one the re-probe
// races its departing sessions' teardown (scenario scripts cannot, and the
// simulator assumes the same). An unknown link or a non-positive capacity
// is an error, and nothing changes.
//
//bneck:locks stripe mailbox
func (rt *Runtime) SetLinkCapacity(c rate.Rate, links ...graph.LinkID) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	// The links' tasks re-probe first, then the controller acts.
	if err := rt.ctl.CheckLinks(c, links); rt.closed || err != nil {
		return rt.apply(nil, err)
	}
	for _, l := range links {
		d := &rt.lnks[linkStripe(l)]
		d.mu.Lock()
		la, ok := d.actors[l]
		d.mu.Unlock()
		if ok {
			la.a.enqueue(message{kind: msgSetCapacity, demand: c}, nil)
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
// a migration, left through Leave, or stranded by a failure. Callers hold
// mu and have seen the network quiescent (no message in flight can target
// a retired incarnation); the stripe locks only order the deletes against
// concurrent Emit lookups.
//
//bneck:locks stripe mailbox
func (rt *Runtime) reclaimRetired() {
	for i := range rt.incs {
		d := &rt.incs[i]
		d.mu.Lock()
		for id, inc := range d.m {
			if !rt.ctl.Departed(id) {
				continue
			}
			inc.reclaimed.Store(true)
			inc.src.stop()
			inc.dst.stop()
			delete(d.m, id)
		}
		d.mu.Unlock()
	}
}

// Incarnations returns how many session incarnations currently hold live
// actors (reclaimed ones are gone; see WaitQuiescent).
func (rt *Runtime) Incarnations() int {
	n := 0
	for i := range rt.incs {
		d := &rt.incs[i]
		d.mu.Lock()
		n += len(d.m)
		d.mu.Unlock()
	}
	return n
}

// LinkPackets returns per-directed-link packet totals for every link that
// carried traffic, ordered by link ID — the same report, with the same
// field names, as the simulator transport's Network.LinkPackets. The
// stripes merge on demand; each counter is read atomically, so a call that
// races traffic sees every link at some recent value, and one made after
// WaitQuiescent sees the exact totals.
func (rt *Runtime) LinkPackets() []metrics.LinkCount {
	var out []metrics.LinkCount
	for i := range rt.lnks {
		d := &rt.lnks[i]
		d.mu.Lock()
		for id, c := range d.pkts {
			if n := c.Load(); n > 0 {
				out = append(out, metrics.LinkCount{Link: id, Packets: n})
			}
		}
		d.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Link < out[b].Link })
	return out
}

// Rates returns a snapshot of all granted rates, keyed by current
// incarnation IDs. The per-stripe tables merge on demand, like LinkPackets.
func (rt *Runtime) Rates() map[core.SessionID]rate.Rate {
	n := 0
	for i := range rt.incs {
		d := &rt.incs[i]
		d.mu.Lock()
		n += len(d.rates)
		d.mu.Unlock()
	}
	out := make(map[core.SessionID]rate.Rate, n)
	for i := range rt.incs {
		d := &rt.incs[i]
		d.mu.Lock()
		for k, v := range d.rates {
			out[k] = v
		}
		d.mu.Unlock()
	}
	return out
}

// Validate checks, after WaitQuiescent, every active session's granted rate
// against the centralized oracle and every link task's stability — the
// simulator's validation (control.Check), over the live deployment. It
// holds mu throughout, so concurrent Validates queue up on it.
func (rt *Runtime) Validate() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if err := rt.ctl.Check(rt.rateOf, rt.tasks, false); err != nil {
		return fmt.Errorf("live: %w", err)
	}
	return nil
}

// rateOf reads incarnation id's granted rate from the ledger and whether its
// source task holds it confirmed.
//
// The source task's state, like the link tasks' state Check reads through
// tasks, is read without a lock, and safely: every handler's writes
// precede its actor's decrement of the activity counter, every change of
// the counter is a read-modify-write of one atomic — so each is ordered
// after all before it, a release sequence in C11 terms — and WaitQuiescent
// returned because it read the zero the last of them wrote. That load
// therefore happens after every handler that has run, and these reads after
// it.
//
//bneck:locks stripe
func (rt *Runtime) rateOf(id core.SessionID) (rate.Rate, bool, bool) {
	r, ok := rt.rateFor(id)
	// nil for a stale incarnation reclaimed as departed; Check reports it as such.
	inc := rt.incarnationFor(id)
	return r, ok, inc != nil && inc.srcT.Converged()
}

// tasks walks the link tasks. Callers hold mu, which every insertion holds.
func (rt *Runtime) tasks(yield func(graph.LinkID, control.Task) bool) {
	for i := range rt.lnks {
		for l, la := range rt.lnks[i].actors {
			if !yield(l, la.task) {
				return
			}
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
	for i := range rt.lnks {
		d := &rt.lnks[i]
		d.mu.Lock()
		for _, la := range d.actors {
			la.a.stop()
		}
		d.mu.Unlock()
	}
	for i := range rt.incs {
		d := &rt.incs[i]
		d.mu.Lock()
		for _, inc := range d.m {
			inc.src.stop()
			inc.dst.stop()
		}
		d.mu.Unlock()
	}
}

// apply executes the controller's actions in order, or reports the bad
// input that stopped a topology operation. Callers hold mu.
//
//bneck:locks stripe mailbox
func (rt *Runtime) apply(acts []control.Action, err error) error {
	if err != nil {
		return fmt.Errorf("live: %w", err)
	}
	for _, a := range acts {
		switch a.Kind {
		case control.Start:
			rt.start(a.ID, a.Path, a.Demand)
		case control.Leave:
			rt.dropRate(a.ID)
			rt.incarnationFor(a.ID).src.enqueue(message{kind: msgLeave}, nil)
		case control.Change:
			rt.incarnationFor(a.ID).src.enqueue(message{kind: msgChange, demand: a.Demand}, nil)
		}
	}
	return nil
}

// start creates incarnation id — its two actors and its hop table, with the
// link actor and packet counters of every link on the path that no
// incarnation crossed before — and enqueues its Join, the only place one
// is enqueued. It is the twin of the simulator transport's resolveHops:
// tasks materialize in the caller, under mu, before the first packet
// exists, so Emit only ever indexes a finished table.
//
//bneck:locks stripe mailbox
func (rt *Runtime) start(id core.SessionID, path graph.Path, demand rate.Rate) {
	inc := &incarnation{id: id, hops: make([]hopRef, len(path))}
	for i, l := range path {
		inc.hops[i] = hopRef{task: rt.linkActorLocked(l), fwd: rt.linkCounterLocked(l)}
		if rev := rt.g.LinkReverse(l); rev != graph.NoLink {
			inc.hops[i].rev = rt.linkCounterLocked(rev)
		}
	}
	// An endpoint task only ever emits for its session: its emitter is fixed.
	srcEm, dstEm := &emitter{rt: rt, cur: inc}, &emitter{rt: rt, cur: inc}
	srcT := core.NewSourceNode(id, srcEm, rt.setRate)
	dstT := core.NewDestinationNode(id, dstEm)
	inc.srcT = srcT
	// The controller issues Join, Change and Leave only in an order the
	// task's state machine accepts; anything else panics in the task.
	inc.src = newActor(rt.activity, func(m *message) {
		switch m.kind {
		case msgPacket:
			srcT.Receive(m.pkt)
		case msgJoin:
			srcT.Join(m.demand)
		case msgLeave:
			srcT.Leave()
		case msgChange:
			srcT.Change(m.demand)
		}
	})
	hop := len(path) + 1
	inc.dst = newActor(rt.activity, func(m *message) { dstT.Receive(m.pkt, hop) })
	srcEm.self, dstEm.self = inc.src, inc.dst
	d := &rt.incs[incStripe(id)]
	d.mu.Lock()
	d.m[id] = inc
	d.mu.Unlock()
	inc.src.enqueue(message{kind: msgJoin, demand: demand}, nil)
}

// linkActorLocked returns (creating if needed) the actor hosting the
// RouterLink task of a directed link. Callers hold rt.mu, which excludes
// SetLinkCapacity for the whole read-capacity-and-install sequence — a
// reconfiguration therefore either lands in the capacity the new task is
// built with, or finds the installed actor and enqueues its re-probe. The
// stripe is taken only to publish the entry to the readers that do not hold
// mu.
//
//bneck:locks stripe
func (rt *Runtime) linkActorLocked(id graph.LinkID) *actor {
	d := &rt.lnks[linkStripe(id)]
	if la, ok := d.actors[id]; ok {
		return la.a
	}
	// A link task emits for whichever session its current packet belongs to;
	// the handler points the task's emitter at that incarnation first.
	em := &emitter{rt: rt}
	task := core.NewRouterLink(core.LinkRef(id), rt.g.Link(id).Capacity, em)
	a := newActor(rt.activity, func(m *message) {
		switch m.kind {
		case msgPacket:
			em.cur = m.inc
			task.Receive(m.pkt, int(m.hop))
		case msgSetCapacity:
			em.cur = nil // the re-probes go to whoever crosses the link
			task.SetCapacity(m.demand)
		}
	})
	em.self = a
	d.mu.Lock()
	d.actors[id] = &linkActor{a: a, task: task}
	d.mu.Unlock()
	return a
}

// linkCounterLocked returns (creating if needed) a directed link's packet
// counter. Callers hold rt.mu; the stripe publishes the entry to LinkPackets.
//
//bneck:locks stripe
func (rt *Runtime) linkCounterLocked(id graph.LinkID) *atomic.Uint64 {
	d := &rt.lnks[linkStripe(id)]
	c, ok := d.pkts[id]
	if !ok {
		c = new(atomic.Uint64)
		d.mu.Lock()
		d.pkts[id] = c
		d.mu.Unlock()
	}
	return c
}

// emitter adapts the Runtime to core.Emitter for one task. Emissions always
// happen inside an actor's handler, so the activity counter can never reach
// zero while a cascade is in flight.
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
// mailbox: the incarnation is at hand (or one stripe away, when a link task
// emits for a session other than its packet's), and its hop table, immutable
// once the Join is enqueued, holds the target actor and the counters of the
// link the packet crosses.
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
		if h.rev != nil {
			h.rev.Add(1)
			inc.pkts.Add(1)
		}
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

type message struct {
	kind msgKind
	hop  int32
	pkt  core.Packet
	// inc is the incarnation a msgPacket was emitted for; the receiving link
	// actor's emitter starts from it.
	inc *incarnation
	// demand carries the Join/Change demand, or the new capacity for
	// msgSetCapacity.
	demand rate.Rate
}
