// Package network wires everything together for simulation runs: it places
// the B-Neck tasks (source, destination, one RouterLink per directed link in
// use) over a topology graph, transports their packets across the discrete
// event simulator's FIFO wires, schedules session dynamics and detects
// quiescence. Validation against the centralized oracle — the methodology of
// the paper's Section IV — is the control plane's Check, which Validate runs
// over this transport's rates and link tasks.
//
// A Network runs on the serial engine of internal/sim. Every protocol task
// has a home node — a RouterLink lives on the From side of its link, session
// endpoints on their hosts — and every packet delivery is keyed by the node
// that sends it, so the event order is (time, creator node, creator
// sequence). Session churn, topology dynamics and sampling are external
// events, scheduled through one funnel (globalAt); each calls the
// control plane (internal/control), which the Network executes.
package network

import (
	"fmt"
	"time"

	"bneck/internal/control"
	"bneck/internal/core"
	"bneck/internal/graph"
	"bneck/internal/metrics"
	"bneck/internal/policy"
	"bneck/internal/rate"
	"bneck/internal/sim"
)

// Config tunes a simulation run.
type Config struct {
	// ControlPacketBits is the size used to compute per-packet transmission
	// (serialization) time on each link: tx = bits / capacity. The paper
	// models transmission times of control packets without consuming data
	// bandwidth; 512 bits approximates its small RM-style control packets.
	// Zero disables serialization delay.
	ControlPacketBits int64
	// BinSize is the packet-count binning interval (Figure 6 uses 5 ms).
	// Zero disables binning.
	BinSize time.Duration
	// OnRate, if set, observes every API.Rate upcall with its virtual time.
	OnRate func(s core.SessionID, lambda rate.Rate, at sim.Time)
	// OnPacket, if set, observes every packet as it is sent across a
	// physical link (intra-host hand-offs are not reported). Useful for
	// protocol tracing and debugging.
	OnPacket func(link graph.LinkID, pkt core.Packet, at sim.Time)
	// PathPolicy selects the path re-optimization policy. The zero value is
	// policy.Pinned — paths never move unless a failure forces them to —
	// which reproduces the historical behavior exactly. With
	// policy.ReoptimizeOnRestore, link restores (and capacity increases past
	// the policy's threshold) sweep the active sessions and migrate any
	// session whose path exceeds the policy's stretch/hysteresis margin,
	// through the same Leave → reroute → Join machinery failures use.
	PathPolicy policy.Config
	// OracleCrossCheck makes Validate also check the oracle's rates against
	// waterfill.WaterFilling and waterfill.Verify on the same instance
	// (Assembler.CrossCheck), failing with an error wrapping
	// waterfill.ErrCrossCheck on any disagreement.
	OracleCrossCheck bool
}

// DefaultConfig mirrors the paper's setup.
func DefaultConfig() Config {
	return Config{ControlPacketBits: 512, BinSize: 5 * time.Millisecond}
}

// Session is one incarnation of a session living in a simulated network. A
// topology event or a rejoin can move a session onto a successor (fresh ID,
// possibly a new path) while the old incarnation departs through the
// protocol's own Leave, so in-flight packets of the two can never interfere.
// Current returns the session's latest incarnation; the read accessors
// follow it implicitly.
type Session struct {
	ID      core.SessionID
	SrcHost graph.NodeID
	DstHost graph.NodeID
	Path    graph.Path
	src     *core.SourceNode
	dst     *core.DestinationNode
	// hops is the session's hop table: hops[i] serves Path[i]. Start resolves
	// it — in serial context, before the session's first packet exists — and
	// every Emit and delivery for the session indexes it instead of walking
	// Path → graph → links[]/wires[].
	hops []hopRef
	// srcPort and dstPort are the ports of the session's endpoint tasks on
	// their hosts; src and dst emit through pointers to them.
	srcPort, dstPort port
	joinedAt         sim.Time
	rateAt           sim.Time
}

// Current returns the live incarnation of the session: itself, or the last
// successor a migration or a rejoin created.
func (s *Session) Current() *Session {
	n := s.srcPort.n
	return n.sessByID[n.ctl.Current(s.ID)]
}

// State returns the session's lifecycle state.
func (s *Session) State() control.State { return s.srcPort.n.ctl.State(s.ID) }

// Stranded reports whether the session is parked without a path after a link
// failure (it rejoins automatically on restore).
func (s *Session) Stranded() bool { return s.State() == control.Stranded }

// JoinedAt returns the virtual time of the session's (last) join, following
// topology-event migrations.
func (s *Session) JoinedAt() sim.Time { return s.Current().joinedAt }

// SettlingTime returns how long after joining the session received its last
// rate notification — its individual convergence latency. After a migration
// it measures the successor's join-to-rate latency.
func (s *Session) SettlingTime() sim.Time {
	cur := s.Current()
	return cur.rateAt - cur.joinedAt
}

// Rate returns the session's last granted rate (valid once ok).
func (s *Session) Rate() (rate.Rate, bool) { return s.Current().src.Rate() }

// Active reports whether the session has joined, not left, and is not
// stranded.
func (s *Session) Active() bool { return s.State() == control.Active }

// Demand returns the session's current requested maximum rate.
func (s *Session) Demand() rate.Rate { return s.Current().src.Demand() }

// Converged reports whether the session holds a confirmed max-min rate.
func (s *Session) Converged() bool { return s.Current().src.Converged() }

// Network is a simulated B-Neck deployment.
type Network struct {
	cfg Config
	g   *graph.Graph
	eng *sim.Engine
	// ctl decides every session lifecycle and topology reaction; the Network
	// executes them (dynamics.go).
	ctl *control.Controller
	// links and wires index the per-link records by LinkID (nil until a path
	// uses the link). They are the creation index — Start resolves hop tables
	// through them; SetCapacity and Validate sweep them — and no packet reads
	// them. Growing them (AddHosts between runs) moves the pointers, never
	// the records.
	links []*core.RouterLink
	wires []*wireRec
	// sessByID is the session table, densely indexed by ID (IDs are assigned
	// 1, 2, …): Emit resolves its session once per packet per hop, and at
	// internet scale (~10⁵ sessions) a map here would cost a hash plus a
	// cache miss per lookup on every path, so the slice is the only table.
	// Slot 0 stays nil; walking the rest is walking creation order.
	sessByID []*Session

	// stats counts the packets sent across physical links (by type, and in
	// bins of Config.BinSize).
	stats *metrics.PacketStats
	// sessPkts counts, densely by session ID, the packets sent across
	// physical links on each session's behalf (the reconfiguration-cost
	// accounting). NewSession grows it.
	sessPkts []uint64
	// free recycles packet deliveries (see deliverEvent).
	free []*deliverEvent
}

// deliverEvent carries one in-flight packet delivery. Emit runs once per
// packet per hop — the hottest call site in the whole simulator — and a
// naive closure there costs two heap allocations per packet (the closure and
// its captured variables). Instead the network keeps a free list of
// deliverEvents, each with a closure built exactly once over the event
// itself; Emit pops one, fills in the pending delivery, and the closure
// recycles its event before delivering, so steady-state packet traffic
// allocates nothing.
type deliverEvent struct {
	sess *Session
	hop  int
	pkt  core.Packet
	fn   func()
}

// takeDeliver returns a ready-to-schedule callback delivering pkt to hop on
// sess, drawing from the free list when possible.
func (n *Network) takeDeliver(sess *Session, hop int, pkt core.Packet) func() {
	var d *deliverEvent
	if k := len(n.free); k > 0 {
		d = n.free[k-1]
		n.free = n.free[:k-1]
	} else {
		d = &deliverEvent{}
		d.fn = func() {
			sess, hop, pkt := d.sess, d.hop, d.pkt
			d.sess = nil
			n.free = append(n.free, d)
			n.deliver(sess, hop, pkt)
		}
	}
	d.sess, d.hop, d.pkt = sess, hop, pkt
	return d.fn
}

// New returns a network over g driven by eng.
func New(g *graph.Graph, eng *sim.Engine, cfg Config) *Network {
	n := &Network{
		cfg:      cfg,
		g:        g,
		eng:      eng,
		sessByID: make([]*Session, 1), // IDs start at 1; slot 0 stays nil
		sessPkts: make([]uint64, 1),
		stats:    metrics.NewPacketStats(cfg.BinSize),
	}
	n.ctl = control.New(g, (*transport)(n))
	n.ctl.Policy = cfg.PathPolicy
	return n
}

// HostPath returns a shortest path from host src to host dst, resolved by
// the resolver the network's own dynamics (migration, readmission,
// re-optimization) use. Callers that place sessions through it get the
// paths those dynamics would pick without keeping a resolver of their own.
func (n *Network) HostPath(src, dst graph.NodeID) (graph.Path, error) {
	return n.ctl.HostPath(src, dst)
}

// globalAt schedules fn as an external event. All session churn and
// topology dynamics go through here — it is the transport's single
// sanctioned funnel for un-keyed (ExtCreator) scheduling, so churn, dynamics
// and sampling share one order (the eventkey analyzer flags any other
// At/After/DaemonAt call).
//
//bneck:global the one blessed ExtCreator funnel; all churn and dynamics flow through here.
func (n *Network) globalAt(at sim.Time, fn func()) {
	n.eng.At(at, fn) //bneck:global see funnel comment above.
}

// Stats returns the packet statistics.
func (n *Network) Stats() *metrics.PacketStats { return n.stats }

// ReconfigPackets returns the cumulative control-packet cost of topology
// reconfigurations: the Leave-cascade packets of every force-departed
// incarnation plus the Join-cascade packets of every topology-driven
// (re)join — migrations, policy re-optimizations and strand rejoins — each
// measured until the quiescence that follows it. The counter is updated
// when Run reaches quiescence; user churn (scheduled joins, leaves,
// demand changes) is never counted.
func (n *Network) ReconfigPackets() uint64 { return n.ctl.ReconfigPackets() }

// Reoptimizations returns how many sessions the path policy migrated back
// onto shorter paths (zero under policy.Pinned). Disjoint from Migrations,
// which counts only failure-forced reroutes.
func (n *Network) Reoptimizations() uint64 { return n.ctl.Reoptimizations() }

// Sessions returns all sessions ever created, in creation order.
func (n *Network) Sessions() []*Session {
	return append([]*Session(nil), n.sessByID[1:]...)
}

// NewSession creates a session between two hosts along path, without joining
// it (schedule the join separately). The path must come from the graph
// (e.g., graph.Resolver.HostPath) and join srcHost to dstHost.
func (n *Network) NewSession(srcHost, dstHost graph.NodeID, path graph.Path) (*Session, error) {
	if err := graph.ValidatePath(n.g, path); err != nil {
		return nil, fmt.Errorf("network: %w", err)
	}
	if n.g.Link(path[0]).From != srcHost || n.g.Link(path[len(path)-1]).To != dstHost {
		return nil, fmt.Errorf("network: path does not join hosts %d and %d", srcHost, dstHost)
	}
	s := n.newSession(n.ctl.Register(srcHost, dstHost, path), srcHost, dstHost)
	s.Path = path
	return s, nil
}

// newSession creates the tasks of incarnation id, the next one the
// controller minted: a user session, or a successor about to start.
func (n *Network) newSession(id core.SessionID, srcHost, dstHost graph.NodeID) *Session {
	s := &Session{
		ID: id, SrcHost: srcHost, DstHost: dstHost,
		srcPort: port{n: n, node: srcHost}, dstPort: port{n: n, node: dstHost},
	}
	s.src = core.NewSourceNode(id, &s.srcPort, func(sid core.SessionID, lambda rate.Rate) {
		at := n.eng.Now()
		s.rateAt = at
		if n.cfg.OnRate != nil {
			n.cfg.OnRate(sid, lambda, at)
		}
	})
	s.dst = core.NewDestinationNode(id, &s.dstPort)
	n.sessByID = append(n.sessByID, s)
	// Size the per-session counter table now, so Emit can index it without
	// bounds games.
	n.sessPkts = append(n.sessPkts, 0)
	return s
}

// ScheduleJoin joins the session at virtual time at with the given demand.
// If a topology event broke the session's path before the join fires, the
// join reroutes (or strands the session until a restore reconnects it). A
// Join of a joined session changes its demand.
func (n *Network) ScheduleJoin(s *Session, at sim.Time, demand rate.Rate) {
	n.globalAt(at, func() { n.ctl.Join(s.ID, demand) })
}

// ScheduleLeave departs the session at virtual time at. A stranded session
// leaves the strand list; a Leave of a session that is not joined
// dissolves, so churn schedules compose with failure schedules.
func (n *Network) ScheduleLeave(s *Session, at sim.Time) {
	n.globalAt(at, func() { n.ctl.Leave(s.ID) })
}

// ScheduleChange changes the session's demand at virtual time at. Changes
// for stranded sessions update the demand they will rejoin with; changes for
// sessions that are not joined dissolve.
func (n *Network) ScheduleChange(s *Session, at sim.Time, demand rate.Rate) {
	n.globalAt(at, func() { n.ctl.Change(s.ID, demand) })
}

// Run drives the simulation to quiescence and returns the quiescence time
// (the timestamp of the last protocol event). Quiescence is also where
// pending reconfiguration-packet spans close (see ReconfigPackets).
func (n *Network) Run() sim.Time {
	q := n.eng.Run()
	n.ctl.Quiesced()
	return q
}

// RunUntil executes all events scheduled at or before t, then sets the
// clock to t — for observing transients.
func (n *Network) RunUntil(t sim.Time) { n.eng.RunUntil(t) }

// port is a foothold on one node: what a protocol task emits through and
// what a wire schedules through. Session endpoints live on their hosts, a
// RouterLink — and the sending end of its link's wire — on the From side of
// the directed link. The node keys the deliveries an emission schedules.
// Tasks and wires hold a pointer to a port stored next to them (in the
// Session, in the link's record), so binding one allocates nothing.
type port struct {
	n    *Network
	node graph.NodeID
	// peer is the receiving end when the port serves a wire (unused by a
	// session endpoint): deliveries are keyed by node — the creator whose
	// execution sends the packet — and owned by peer, which feeds the
	// schedule explorer's independence relation.
	peer graph.NodeID
}

// Now and At make a port the sim.Sched of its wire.
func (p *port) Now() sim.Time { return p.n.eng.Now() }

func (p *port) At(t sim.Time, f func()) {
	p.n.eng.SendFromTo(int32(p.node), int32(p.peer), t, f)
}

// hopRef is what a packet needs to know about one link of its session's
// path: the link's task, the wire a packet going down crosses to leave it,
// and the wire of the reverse link, which a packet going up crosses to
// reach it. A hop is one index into the session's table and the records
// these point at; nothing on the way reads the graph or the link tables.
type hopRef struct {
	task     *core.RouterLink
	fwd, rev *wireRec
}

// wireRec is one directed link's wire together with the port it runs on:
// the wire's Sched points into the record, so nothing is boxed and a Send
// stays inside one allocation.
type wireRec struct {
	sim.Wire
	port
}

// linkRec is everything a directed link that carries a task owns, in one
// allocation: the RouterLink (whose table holds its first session inline)
// and the link's own wire — the one the task's downstream packets leave on —
// whose port the task also emits through. A link used only in reverse, as
// the way back for another link's upstream packets, has a bare wireRec
// instead.
type linkRec struct {
	task core.RouterLink
	wire wireRec
}

// Emit moves a packet one hop along (or against) the session's path,
// crossing the corresponding physical wire.
func (em *port) Emit(s core.SessionID, from int, dir core.Direction, pkt core.Packet) {
	n := em.n
	var sess *Session
	if int(s) < len(n.sessByID) {
		sess = n.sessByID[s]
	}
	if sess == nil {
		panic(fmt.Sprintf("network: emit for unknown session %d", s))
	}
	var to int
	var w *wireRec
	if dir == core.Down {
		to = from + 1
		if from >= 1 {
			w = sess.hops[from-1].fwd
		}
	} else {
		to = from - 1
		if from >= 2 {
			w = sess.hops[from-2].rev
		}
	}
	deliver := n.takeDeliver(sess, to, pkt)
	if w == nil {
		// Intra-host hand-off (source ↔ its access-link task): no wire. Both
		// endpoints live on the source host; the event is keyed by it.
		n.eng.SendFrom(int32(em.node), n.eng.Now(), deliver)
		return
	}
	// The packet crosses a physical link: account it (the paper counts
	// every packet sent across a link) and serialize it on the wire.
	now := n.eng.Now()
	n.stats.Record(pkt.Type, now)
	n.sessPkts[sess.ID]++
	if n.cfg.OnPacket != nil {
		// The wire's link: the sender's own going down, the reverse of the
		// one below it going up.
		link := sess.Path[min(from, to)-1]
		if dir == core.Up {
			link = n.g.LinkReverse(link)
		}
		n.cfg.OnPacket(link, pkt, now)
	}
	w.Send(deliver)
}

func (n *Network) deliver(sess *Session, hop int, pkt core.Packet) {
	switch {
	case hop == 0:
		sess.src.Receive(pkt)
	case hop == len(sess.hops)+1:
		sess.dst.Receive(pkt, hop)
	default:
		sess.hops[hop-1].task.Receive(pkt, hop)
	}
}

// resolveHops returns the hop table of a path, materializing the records of
// the links it is the first to use. Start calls it before the session's first
// packet exists. Every link of a validated path has a reverse (graph.ValidatePath
// says so to whoever passes a path in); a path the resolver hands a
// first-time joiner directly is checked here, so a link without one stops
// the join that would use it instead of the first Response to come back.
func (n *Network) resolveHops(path graph.Path) []hopRef {
	if want := n.g.NumLinks(); len(n.links) < want {
		// Hosts and their access links can be added between runs.
		n.links = append(n.links, make([]*core.RouterLink, want-len(n.links))...)
		n.wires = append(n.wires, make([]*wireRec, want-len(n.wires))...)
	}
	hops := make([]hopRef, len(path))
	// The ways back nobody has used yet come out of one allocation, in path
	// order: a session's upstream packets cross them one after the other.
	unused := 0
	for _, l := range path {
		rev := n.g.LinkReverse(l)
		if rev == graph.NoLink {
			panic(fmt.Sprintf("network: join over link %d, which has no reverse", l))
		}
		if n.wires[rev] == nil {
			unused++
		}
	}
	bare := make([]wireRec, unused)
	for i, l := range path {
		// The task first: a link's wire then lands in the task's record.
		hops[i].task = n.routerLink(l)
		hops[i].fwd = n.wires[l]
		rev := n.g.LinkReverse(l)
		if n.wires[rev] == nil {
			n.wires[rev] = n.initWire(&bare[0], n.g.Link(rev))
			bare = bare[1:]
		}
		hops[i].rev = n.wires[rev]
	}
	return hops
}

// routerLink returns the RouterLink task of a directed link, creating the
// link's record at first use. The task executes on the link's From node.
func (n *Network) routerLink(id graph.LinkID) *core.RouterLink {
	if rl := n.links[id]; rl != nil {
		return rl
	}
	l := n.g.Link(id)
	rec := new(linkRec)
	w := n.initWire(&rec.wire, l)
	rec.task.Init(core.LinkRef(id), l.Capacity, &w.port)
	n.links[id] = &rec.task
	if n.wires[id] == nil {
		// Otherwise the link already served as somebody's way back and keeps
		// that wire (and its backlog); the record's own then carries only
		// the task's port.
		n.wires[id] = w
	}
	return &rec.task
}

func (n *Network) initWire(w *wireRec, l graph.Link) *wireRec {
	w.port = port{n: n, node: l.From, peer: l.To}
	w.Init(&w.port, l.Propagation, n.txFor(l.Capacity))
	return w
}

// txFor returns the per-packet transmission time on a link of the given
// capacity: tx = bits / capacity, in seconds.
func (n *Network) txFor(capacity rate.Rate) time.Duration {
	if n.cfg.ControlPacketBits <= 0 {
		return 0
	}
	bps := capacity.Float64()
	if bps <= 0 {
		return 0
	}
	return time.Duration(float64(n.cfg.ControlPacketBits) / bps * float64(time.Second))
}

// Oracle computes the max-min fair rates of the currently active sessions
// with Centralized B-Neck (the controller's oracle). The result maps session
// IDs to rates.
func (n *Network) Oracle() (map[core.SessionID]rate.Rate, error) {
	rates, err := n.ctl.Oracle()
	if err != nil {
		return nil, err
	}
	out := make(map[core.SessionID]rate.Rate, len(rates))
	for _, s := range n.sessByID[1:] {
		if n.ctl.Active(s.ID) {
			out[s.ID], rates = rates[0], rates[1:]
		}
	}
	return out, nil
}

// Validate checks, after quiescence, every active session's rate against the
// oracle and every link task's stability (control.Check). With
// Config.OracleCrossCheck the oracle's own rates are checked first.
func (n *Network) Validate() error {
	err := n.ctl.Check(n.rateOf, n.tasks, n.cfg.OracleCrossCheck)
	if err != nil {
		return fmt.Errorf("network: %w", err)
	}
	return nil
}

// rateOf reads incarnation id's granted rate and whether it is confirmed.
func (n *Network) rateOf(id core.SessionID) (rate.Rate, bool, bool) {
	src := n.sessByID[id].src
	r, ok := src.Rate()
	return r, ok, src.Converged()
}

// tasks walks the link tasks in link order.
func (n *Network) tasks(yield func(graph.LinkID, control.Task) bool) {
	for l, rl := range n.links {
		if rl != nil && !yield(graph.LinkID(l), rl) {
			return
		}
	}
}
