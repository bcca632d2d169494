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
// optional path re-optimization policy (SetPathPolicy, see internal/policy)
// migrates sessions back onto shorter paths when restores re-enable them.
// See DESIGN.md §6 and §11.
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
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"bneck/internal/core"
	"bneck/internal/graph"
	"bneck/internal/metrics"
	"bneck/internal/policy"
	"bneck/internal/rate"
	"bneck/internal/waterfill"
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
// Merge-on-demand readers (LinkPackets, Rates, Validate) gather the stripes.
//
// No handler ever takes mu or a link stripe, and no caller holding mu runs
// a handler (a claim made under mu starts a worker). Hop tables are
// resolved, and the link actors and packet counters they point to created,
// under mu by the call that enqueues an incarnation's Join (joinLocked),
// before any of its packets exists: lazily, from inside a handler, the
// first packet on a link would wait behind a running FailLinks. Resolving
// at Join and not at NewSession keeps session set-up cheap and creates
// exactly the actors a Join cascade would have reached. Because every
// creation holds mu, SetLinkCapacity (which holds mu too) either lands in
// the capacity a new task is built with or finds the installed actor.
//
// Lock order: mu → domain stripe → actor mailbox. Emit never holds two
// locks at once, and nothing acquires mu while holding a stripe. The order
// is machine-checked by bnecklint's lockorder analyzer through the
// //bneck:lock tier annotations below (DESIGN.md §12, "Machine-enforced
// invariants").
type Runtime struct {
	g *graph.Graph

	mu       sync.Mutex //bneck:lock mu
	resolver *graph.Resolver
	order    []*Session // logical sessions, in creation order
	nextID   core.SessionID
	closed   bool
	migrated uint64

	// policy is the path re-optimization policy (Pinned by default);
	// reoptimized counts the sessions it moved back onto shorter paths.
	// Guarded by mu, like the rest of the lifecycle state.
	policy      policy.Config
	reoptimized uint64
	// Reconfiguration-packet accounting, the live twin of the simulator
	// transport's: spans opened by topology-driven Leaves and joins close at
	// the next WaitQuiescent. Guarded by mu; the per-incarnation counters
	// they read are atomics bumped by Emit.
	reconfTear   []reconfIncSpan
	reconfJoin   []*incarnation
	reconfigPkts uint64

	activity *activityCounter

	// incs shards the incarnation table and the granted-rate table by
	// session ID; lnks shards the link-actor table and the per-link packet
	// counters (the live twin of the simulator's per-wire counters) by link
	// ID. Entries of lnks are added only under mu (plus the stripe, for the
	// readers that do not hold mu) and never removed.
	incs [emitDomains]incDomain
	lnks [emitDomains]linkDomain

	// oracle assembles and solves Validate's waterfill instance in scratch
	// kept between calls; oracleIDs lists the instance's sessions by their
	// current incarnation. oracleMu guards both and is taken before mu, so
	// concurrent Validates queue up instead of sharing the scratch.
	oracleMu  sync.Mutex
	oracle    waterfill.Assembler[graph.LinkID]
	oracleIDs []core.SessionID
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

// reconfIncSpan is one pending teardown debit: the packets a force-departed
// incarnation sends from its Leave (base) until the next quiescence are its
// Leave cascade — reconfiguration traffic.
type reconfIncSpan struct {
	inc  *incarnation
	base uint64
}

// incarnation is one protocol-level lifetime of a logical session: a session
// ID, a path, and the actors hosting its source and destination tasks. A
// topology-event reroute retires the old incarnation (through Leave) and
// creates a new one.
type incarnation struct {
	id    core.SessionID
	path  graph.Path
	src   *actor
	dst   *actor
	owner *Session
	// hops[i] serves path[i]. Written once, under mu, by joinLocked before
	// the incarnation's Join is enqueued; every Emit for the incarnation is
	// a consequence of that message, so handlers read it without a lock.
	hops []hopRef
	// pkts counts the packets sent across physical links on this
	// incarnation's behalf. Bumped by Emit from any worker goroutine, hence
	// atomic; everything else reads it under mu.
	pkts atomic.Uint64
	// reconfAccounted marks an incarnation whose packets-until-quiescence
	// are already attributed to reconfiguration traffic (guarded by mu).
	reconfAccounted bool
	// reclaimed marks an incarnation whose actors were stopped after its
	// Leave cascade drained; a later Join mints a fresh incarnation. Set
	// under mu; atomic because Emit checks it on a worker goroutine.
	reclaimed atomic.Bool
	// departed marks an incarnation a Leave was issued to. A later Join
	// mints a fresh incarnation instead of rejoining this ID: responses of
	// the departed lifetime can still be in flight, and a link receiving
	// one for a re-created entry would corrupt its state machine (the
	// fresh-ID rule migrations and restores already follow).
	departed bool
}

// New returns a runtime over g. The runtime owns g's mutable state: apply
// topology changes only through SetLinkCapacity/FailLinks/RestoreLinks (the
// node/link structure itself must be complete before traffic flows).
func New(g *graph.Graph) *Runtime {
	rt := &Runtime{
		g:        g,
		resolver: graph.NewResolver(g, 256),
		nextID:   1,
		activity: newActivityCounter(),
	}
	rt.oracle.Capacity = func(l graph.LinkID) rate.Rate { return g.Link(l).Capacity }
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

// SetPathPolicy installs the path re-optimization policy (see
// internal/policy). The default is Pinned. Install it before topology
// events fire; the policy itself is applied under the runtime mutex, so the
// call is safe at any time.
func (rt *Runtime) SetPathPolicy(cfg policy.Config) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.policy = cfg
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
	rt               *Runtime
	srcHost, dstHost graph.NodeID

	// Guarded by rt.mu.
	cur      *incarnation
	demand   rate.Rate
	active   bool // user intent: joined and not left
	stranded bool // no path between the hosts right now
}

// HostPath returns a shortest path from host src to host dst, resolved by
// the resolver the runtime's own dynamics (migration, readmission,
// re-optimization) use. Callers that place sessions through it share one
// tree cache with those dynamics instead of keeping a second.
func (rt *Runtime) HostPath(src, dst graph.NodeID) (graph.Path, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.resolver.HostPath(src, dst)
}

// NewSession creates a session along path (see HostPath).
func (rt *Runtime) NewSession(path graph.Path) (*Session, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return nil, fmt.Errorf("live: runtime closed")
	}
	if err := graph.ValidatePath(rt.g, path); err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	s := &Session{
		rt:      rt,
		srcHost: rt.g.Link(path[0]).From,
		dstHost: rt.g.Link(path[len(path)-1]).To,
	}
	rt.newIncarnationLocked(s, append(graph.Path(nil), path...))
	rt.order = append(rt.order, s)
	return s, nil
}

// newIncarnationLocked mints a fresh protocol identity for s on path and
// starts its actors. Callers hold rt.mu.
func (rt *Runtime) newIncarnationLocked(s *Session, path graph.Path) {
	id := rt.nextID
	rt.nextID++
	inc := &incarnation{id: id, path: path, owner: s}
	// An endpoint task only ever emits for its session: its emitter is fixed.
	srcEm, dstEm := &emitter{rt: rt, cur: inc}, &emitter{rt: rt, cur: inc}
	srcT := core.NewSourceNode(id, srcEm, rt.setRate)
	dstT := core.NewDestinationNode(id, dstEm)
	inc.src = newActor(rt.activity, func(m *message) {
		// Guards make session events idempotent: a user Leave racing a
		// migration Leave (or a scripted double event) dissolves instead of
		// tripping the task's state machine.
		switch m.kind {
		case msgPacket:
			srcT.Receive(m.pkt)
		case msgJoin:
			if !srcT.Active() {
				srcT.Join(m.demand)
			}
		case msgLeave:
			if srcT.Active() {
				srcT.Leave()
			}
		case msgChange:
			if srcT.Active() {
				srcT.Change(m.demand)
			}
		}
	})
	hop := len(path) + 1
	inc.dst = newActor(rt.activity, func(m *message) { dstT.Receive(m.pkt, hop) })
	srcEm.self, dstEm.self = inc.src, inc.dst
	d := &rt.incs[incStripe(id)]
	d.mu.Lock()
	d.m[id] = inc
	d.mu.Unlock()
	s.cur = inc
}

// ID returns the session's current protocol identifier (reroutes change it).
func (s *Session) ID() core.SessionID {
	s.rt.mu.Lock()
	defer s.rt.mu.Unlock()
	return s.cur.id
}

// Path returns the session's current path. The caller must not modify it.
func (s *Session) Path() graph.Path {
	s.rt.mu.Lock()
	defer s.rt.mu.Unlock()
	return s.cur.path
}

// Stranded reports whether the session is parked without a path after a link
// failure.
func (s *Session) Stranded() bool {
	s.rt.mu.Lock()
	defer s.rt.mu.Unlock()
	return s.stranded
}

// Join asynchronously invokes API.Join(s, demand).
//
// Join, Leave and Change enqueue while holding rt.mu so a concurrent
// topology event (FailLinks, which also holds rt.mu while it migrates)
// cannot slip between reading the current incarnation and the enqueue —
// otherwise a Join could land in a retired incarnation's mailbox after its
// migration Leave and resurrect it on a failed path. The established lock
// order rt.mu → actor.mu makes the nested enqueue safe.
func (s *Session) Join(demand rate.Rate) {
	s.rt.mu.Lock()
	defer s.rt.mu.Unlock()
	s.demand = demand
	s.active = true
	if s.stranded {
		return // joins when a restore reconnects the hosts
	}
	if s.rt.closed {
		return // a closed runtime starts no actors; the Join would be dropped
	}
	if !s.rt.pathUpLocked(s.cur.path) {
		// Failures migrate only joined sessions, so a link of this path can
		// have failed while the session was not joined (or was stranded and
		// then left). Route around it, or park until a restore — what the
		// simulator transport's joinOrStrand does.
		path, err := s.rt.resolver.HostPath(s.srcHost, s.dstHost)
		if err != nil {
			s.stranded = true
			return
		}
		s.rt.newIncarnationLocked(s, path)
	} else if s.cur.reclaimed.Load() || s.cur.departed {
		// The previous incarnation left (its actors may or may not have
		// been reclaimed yet); rejoin as a fresh incarnation on the same
		// path so its in-flight teardown traffic cannot touch the new
		// lifetime's state.
		s.rt.newIncarnationLocked(s, s.cur.path)
	}
	s.rt.joinLocked(s.cur, demand)
}

func (rt *Runtime) pathUpLocked(p graph.Path) bool {
	for _, l := range p {
		if !rt.g.LinkUp(l) {
			return false
		}
	}
	return true
}

// joinLocked enqueues inc's Join — the only place one is enqueued — after
// resolving its hop table: the link actor and the packet counters of every
// link on the path, created here if this is the first incarnation to cross
// them. It is the twin of the simulator transport's resolveHops: tasks
// materialize in the caller, under mu, before the first packet exists, so
// Emit only ever indexes a finished table. Callers hold rt.mu.
//
//bneck:locks stripe mailbox
func (rt *Runtime) joinLocked(inc *incarnation, demand rate.Rate) {
	if inc.hops == nil {
		hops := make([]hopRef, len(inc.path))
		for i, l := range inc.path {
			hops[i] = hopRef{task: rt.linkActorLocked(l), fwd: rt.linkCounterLocked(l)}
			if rev := rt.g.LinkReverse(l); rev != graph.NoLink {
				hops[i].rev = rt.linkCounterLocked(rev)
			}
		}
		inc.hops = hops
	}
	inc.src.enqueue(message{kind: msgJoin, demand: demand}, nil)
}

// Leave asynchronously invokes API.Leave(s). See Join for the locking
// discipline.
func (s *Session) Leave() {
	s.rt.mu.Lock()
	defer s.rt.mu.Unlock()
	s.active = false
	stranded := s.stranded
	s.stranded = false
	s.rt.dropRate(s.cur.id)
	if stranded {
		return
	}
	s.cur.departed = true
	s.cur.src.enqueue(message{kind: msgLeave}, nil)
}

// Active reports whether the session has joined, not left, and is not
// stranded by a link failure.
func (s *Session) Active() bool {
	s.rt.mu.Lock()
	defer s.rt.mu.Unlock()
	return s.active && !s.stranded
}

// Change asynchronously invokes API.Change(s, demand). See Join for the
// locking discipline.
func (s *Session) Change(demand rate.Rate) {
	s.rt.mu.Lock()
	defer s.rt.mu.Unlock()
	s.demand = demand
	if s.stranded {
		return // the recorded demand applies on rejoin
	}
	s.cur.src.enqueue(message{kind: msgChange, demand: demand}, nil)
}

// Rate returns the session's last granted rate. Safe to call from any
// goroutine; stable once WaitQuiescent has returned.
func (s *Session) Rate() (rate.Rate, bool) {
	s.rt.mu.Lock()
	id, gone := s.cur.id, s.stranded || !s.active
	s.rt.mu.Unlock()
	if gone {
		return rate.Zero, false
	}
	return s.rt.rateFor(id)
}

// SetLinkCapacity changes the capacity of the given directed links. Pass a
// link and its reverse for a duplex reconfiguration. Crossing sessions
// re-probe and the network re-quiesces by itself. Reconfigure only links
// that are up: on a failed link the re-probe races the migration teardown
// of its departing sessions (the scenario checker rejects such scripts
// statically, and the simulator transport assumes the same contract).
func (rt *Runtime) SetLinkCapacity(c rate.Rate, links ...graph.LinkID) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return
	}
	var upgraded map[graph.LinkID]bool
	for _, l := range links {
		old := rt.g.Link(l).Capacity
		rt.g.SetCapacity(l, c)
		d := &rt.lnks[linkStripe(l)]
		d.mu.Lock()
		la, ok := d.actors[l]
		d.mu.Unlock()
		if ok {
			la.a.enqueue(message{kind: msgSetCapacity, demand: c}, nil)
		}
		if rt.policy.CapacityTriggers(old, c) {
			if upgraded == nil {
				upgraded = make(map[graph.LinkID]bool, len(links))
			}
			upgraded[l] = true
		}
	}
	if upgraded != nil {
		rt.reoptimizeLocked(upgraded)
	}
}

// FailLinks takes the given directed links down and migrates crossing
// sessions onto surviving paths (or strands them). All listed links fail
// before any session reroutes.
func (rt *Runtime) FailLinks(links ...graph.LinkID) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return
	}
	failed := make(map[graph.LinkID]bool, len(links))
	for _, l := range links {
		if rt.g.LinkUp(l) {
			rt.g.FailLink(l)
			failed[l] = true
		}
	}
	if len(failed) == 0 {
		return
	}
	// Only joined sessions migrate, as on the simulator transport; a session
	// that is not joined keeps its path and Join routes around what failed.
	for _, s := range rt.order {
		if !s.active || s.stranded || !crossesAny(s.cur.path, failed) {
			continue
		}
		rt.migrateLocked(s)
	}
}

// RestoreLinks brings the given directed links back up and readmits stranded
// sessions whose hosts are reconnected. Routed sessions keep their pinned
// paths under the default Pinned policy; under ReoptimizeOnRestore
// (SetPathPolicy) the restore also sweeps the active population and
// migrates sessions back onto shorter paths.
func (rt *Runtime) RestoreLinks(links ...graph.LinkID) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return
	}
	restored := false
	for _, l := range links {
		if !rt.g.LinkUp(l) {
			rt.g.RestoreLink(l)
			restored = true
		}
	}
	if !restored {
		return
	}
	for _, s := range rt.order {
		if !s.stranded {
			continue
		}
		path, err := rt.resolver.HostPath(s.srcHost, s.dstHost)
		if err != nil {
			continue
		}
		s.stranded = false
		rt.rejoinLocked(s, path)
	}
	rt.reoptimizeLocked(nil)
}

// Migrations returns how many session reroutes link failures have forced.
// Policy-driven reroutes are counted separately by Reoptimizations.
func (rt *Runtime) Migrations() uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.migrated
}

// Reoptimizations returns how many sessions the path policy migrated back
// onto shorter paths (zero under the default Pinned policy).
func (rt *Runtime) Reoptimizations() uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.reoptimized
}

// retireLocked force-departs s's current incarnation — Leave, granted-rate
// cleanup, teardown accounting — the shared first half of every
// topology-driven reroute. Only meaningful for active sessions. Callers
// hold rt.mu.
func (rt *Runtime) retireLocked(s *Session) {
	rt.beginTeardownLocked(s.cur)
	s.cur.departed = true
	s.cur.src.enqueue(message{kind: msgLeave}, nil)
	rt.dropRate(s.cur.id)
}

// rejoinLocked mints a fresh incarnation for s — a joined session — on path
// and enqueues its Join with reconfiguration accounting: the shared second
// half of every topology-driven reroute. Callers hold rt.mu.
func (rt *Runtime) rejoinLocked(s *Session, path graph.Path) {
	rt.newIncarnationLocked(s, path)
	rt.markReconfigJoinLocked(s.cur)
	rt.joinLocked(s.cur, s.demand)
}

// migrateLocked retires a joined session's current incarnation through Leave
// and rejoins a fresh one on a surviving path, or strands the session.
func (rt *Runtime) migrateLocked(s *Session) {
	rt.retireLocked(s)
	path, err := rt.resolver.HostPath(s.srcHost, s.dstHost)
	if err != nil {
		s.stranded = true
		return
	}
	rt.migrated++
	rt.rejoinLocked(s, path)
}

// reoptimizeLocked re-runs shortest-path over the routed active sessions in
// creation order and migrates — Leave, fresh incarnation, Join, exactly the
// failure machinery — every session the policy says is too far off its best
// path. upgraded, when non-nil, marks the capacity-trigger sweep: sessions
// whose best path crosses an upgraded link bypass the hysteresis. Callers
// hold rt.mu.
func (rt *Runtime) reoptimizeLocked(upgraded map[graph.LinkID]bool) {
	if !rt.policy.Enabled() {
		return
	}
	for _, s := range rt.order {
		if !s.active || s.stranded {
			continue
		}
		best, err := rt.resolver.HostPath(s.srcHost, s.dstHost)
		if err != nil {
			continue // routed active sessions always have a path
		}
		bypass := upgraded != nil && crossesAny(best, upgraded)
		if !rt.policy.ShouldMigrate(len(s.cur.path), len(best), bypass) {
			continue
		}
		rt.retireLocked(s)
		rt.reoptimized++
		rt.rejoinLocked(s, best)
	}
}

// beginTeardownLocked opens a reconfiguration teardown span: everything the
// force-departed incarnation sends from here to the next quiescence is its
// Leave cascade. Callers hold rt.mu.
func (rt *Runtime) beginTeardownLocked(inc *incarnation) {
	if inc.reconfAccounted {
		return
	}
	inc.reconfAccounted = true
	rt.reconfTear = append(rt.reconfTear, reconfIncSpan{inc: inc, base: inc.pkts.Load()})
}

// markReconfigJoinLocked attributes a freshly (re)joined incarnation's
// packets — from birth to the next quiescence — to reconfiguration traffic.
// Callers hold rt.mu.
func (rt *Runtime) markReconfigJoinLocked(inc *incarnation) {
	if inc.reconfAccounted {
		return
	}
	inc.reconfAccounted = true
	rt.reconfJoin = append(rt.reconfJoin, inc)
}

// finalizeReconfig closes the pending reconfiguration spans. Call only when
// the network is quiescent (WaitQuiescent does).
func (rt *Runtime) finalizeReconfig() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, t := range rt.reconfTear {
		rt.reconfigPkts += t.inc.pkts.Load() - t.base
		t.inc.reconfAccounted = false
	}
	rt.reconfTear = rt.reconfTear[:0]
	for _, inc := range rt.reconfJoin {
		rt.reconfigPkts += inc.pkts.Load()
		inc.reconfAccounted = false
	}
	rt.reconfJoin = rt.reconfJoin[:0]
}

// ReconfigPackets returns the cumulative control-packet cost of topology
// reconfigurations — the Leave-cascade packets of force-departed
// incarnations plus the Join-cascade packets of topology-driven (re)joins,
// each measured until the quiescence that follows — the same report as the
// simulator transport's Network.ReconfigPackets. Updated by WaitQuiescent;
// user churn is never counted.
func (rt *Runtime) ReconfigPackets() uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.reconfigPkts
}

func crossesAny(p graph.Path, links map[graph.LinkID]bool) bool {
	for _, l := range p {
		if links[l] {
			return true
		}
	}
	return false
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
	rt.finalizeReconfig()
	rt.reclaimRetired()
}

// reclaimRetired stops and drops the actors of every incarnation that can
// never process protocol traffic again: superseded by a migration, departed
// through Leave, or stranded by a failure. Call only when the network is
// quiescent (no message in flight can target a retired incarnation). The
// retirement decision reads session state under mu; the stripe locks only
// order the deletes against concurrent Emit lookups.
func (rt *Runtime) reclaimRetired() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return
	}
	for i := range rt.incs {
		d := &rt.incs[i]
		d.mu.Lock()
		for id, inc := range d.m {
			s := inc.owner
			retired := s.cur != inc || !s.active || s.stranded
			if !retired {
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

// SessionPackets returns per-incarnation packet totals for every
// incarnation that currently holds live actors and carried traffic, ordered
// by incarnation ID — the live counterpart of the simulator transport's
// Network.SessionPackets (same field names). Incarnations reclaimed at a
// past quiescence are gone; their reconfiguration cost is preserved in
// ReconfigPackets.
func (rt *Runtime) SessionPackets() []metrics.SessionCount {
	var out []metrics.SessionCount
	for i := range rt.incs {
		d := &rt.incs[i]
		d.mu.Lock()
		for id, inc := range d.m {
			if pk := inc.pkts.Load(); pk > 0 {
				out = append(out, metrics.SessionCount{Session: id, Packets: pk})
			}
		}
		d.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Session < out[b].Session })
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

// ErrStaleIncarnation reports an active session living on a departed
// incarnation — the live transport's counterpart of
// network.ErrStaleIncarnation. Classify with errors.Is.
var ErrStaleIncarnation = errors.New("live: departed-but-active incarnation (stale rejoin)")

// Validate cross-checks, after WaitQuiescent, every routed active session's
// granted rate against the centralized water-filling oracle and every link
// task's stability — the same validation the simulator applies, over the
// live deployment.
//
// The task state is read without a lock, and safely: every handler's writes
// precede its actor's decrement of the activity counter, every change of
// the counter is a read-modify-write of one atomic — so each is ordered
// after all before it, a release sequence in C11 terms — and WaitQuiescent
// returned because it read the zero the last of them wrote. That load
// therefore happens after every handler that has run, and this read after
// it.
func (rt *Runtime) Validate() error {
	rt.oracleMu.Lock()
	defer rt.oracleMu.Unlock()
	rt.mu.Lock()
	active := rt.oracleIDs[:0]
	rt.oracle.Reset()
	for _, s := range rt.order {
		if !s.active || s.stranded {
			continue
		}
		// No-stale-incarnation: an active session must be living on a fresh
		// incarnation — Join/rejoin mint a new one whenever the current has
		// departed, so observing departed here means a stale rejoin.
		if s.cur.departed {
			id := s.cur.id
			rt.mu.Unlock()
			return fmt.Errorf("live: session %d: %w", id, ErrStaleIncarnation)
		}
		for _, l := range s.cur.path {
			// Failures migrate every joined session off the link and Join
			// routes around failed links, so this is a runtime bug.
			if !rt.g.LinkUp(l) {
				id := s.cur.id
				rt.mu.Unlock()
				return fmt.Errorf("live: session %d is routed over failed link %d", id, l)
			}
		}
		rt.oracle.Add(s.demand, s.cur.path)
		active = append(active, s.cur.id)
	}
	rt.oracleIDs = active
	tasks := make(map[graph.LinkID]*core.RouterLink)
	for i := range rt.lnks {
		d := &rt.lnks[i]
		d.mu.Lock()
		for l, la := range d.actors {
			tasks[l] = la.task
		}
		d.mu.Unlock()
	}
	rt.mu.Unlock()

	want, err := rt.oracle.Solve()
	if err != nil {
		return fmt.Errorf("live: oracle failed: %w", err)
	}
	for i, id := range active {
		got, ok := rt.rateFor(id)
		if !ok {
			return fmt.Errorf("live: session %d has no rate after quiescence", id)
		}
		if !got.Equal(want[i]) {
			return fmt.Errorf("live: session %d rate %v, oracle %v", id, got, want[i])
		}
	}
	for l, task := range tasks {
		if err := task.CheckInvariants(); err != nil {
			return fmt.Errorf("live: link %d: %w", l, err)
		}
		if !task.Stable() {
			return fmt.Errorf("live: link %d unstable after quiescence", l)
		}
	}
	return nil
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
