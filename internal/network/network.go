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
// events, scheduled through one funnel (globalAt); each calls the control
// plane (internal/control, DESIGN.md §6) and applies the actions it
// returns. A capacity change reconfigures the links' tasks and wires, whose
// re-probes the controller's upgrade sweep must count, before the call.
package network

import (
	"fmt"
	"time"
	"unsafe"

	"bneck/internal/control"
	"bneck/internal/core"
	"bneck/internal/graph"
	"bneck/internal/metrics"
	"bneck/internal/rate"
	"bneck/internal/sim"
)

// Config tunes a simulation run.
type Config struct {
	// BinSize is the packet-count binning interval (Figure 6 uses 5 ms).
	// Zero disables binning.
	BinSize time.Duration
	// OnRate, if set, observes every API.Rate upcall with its virtual time.
	OnRate func(s core.SessionID, lambda rate.Rate, at sim.Time)
	// OnPacket, if set, observes every packet as it is sent across a
	// physical link (intra-host hand-offs are not reported). Useful for
	// protocol tracing and debugging.
	OnPacket func(link graph.LinkID, pkt core.Packet, at sim.Time)
	// PathPolicy is the path re-optimization policy (control.Policy). The
	// zero value, control.Pinned, moves a path only when a failure forces it.
	PathPolicy control.Policy
	// OracleCrossCheck makes Validate also check the oracle's rates against
	// waterfill.WaterFilling and waterfill.Verify on the same instance
	// (Assembler.CrossCheck), failing with an error wrapping
	// waterfill.ErrCrossCheck on any disagreement.
	OracleCrossCheck bool
	// Delay, if set, is drawn once per packet crossing a physical link: the
	// wire's transmitter holds the packet that much longer before sending
	// it (sim.Wire.Depart), which delays the packets behind it and reorders
	// none. It is the schedule explorer's adversary (internal/mc); nil runs
	// every wire at its own pace.
	Delay func() time.Duration
}

// ControlPacketBits is the size of every control packet, which sets its
// transmission (serialization) time on a link: tx = bits / capacity. The
// paper models transmission times of control packets without consuming data
// bandwidth; 512 bits approximates its small RM-style control packets. The
// baseline protocols' harness sends packets of the same size.
const ControlPacketBits = 512

// TxTime returns a control packet's transmission time on a link of the given
// capacity: 0 on an unlimited link.
func TxTime(capacity rate.Rate) time.Duration {
	bps := capacity.Float64()
	if bps <= 0 {
		return 0
	}
	return time.Duration(ControlPacketBits / bps * float64(time.Second))
}

// DefaultConfig mirrors the paper's setup.
func DefaultConfig() Config {
	return Config{BinSize: 5 * time.Millisecond}
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
	// applies the actions it returns (apply).
	ctl *control.Controller
	// links and wires index the per-link records by LinkID (nil until a path
	// uses the link). They are the creation index — Start resolves hop tables
	// through them; SetCapacity and Validate sweep them — and no packet reads
	// them. Growing them (AddHosts between runs) moves the pointers, never
	// the records.
	links []*linkRec
	wires []*sim.Wire
	// sessByID is the session table, densely indexed by ID (IDs are assigned
	// 1, 2, …): Emit resolves its session once per packet per hop, and at
	// internet scale (~10⁵ sessions) a map here would cost a hash plus a
	// cache miss per lookup on every path, so the slice is the only table.
	// Slot 0 stays nil; walking the rest is walking creation order.
	sessByID []*Session
	// hops holds the hop tables by session ID: hops[s][i] serves Path[i].
	// Start writes one, before the session's first packet, and no packet
	// walks Session → Path → graph → links[]/wires[] (DESIGN.md §3).
	hops [][]hopRef

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
// allocates nothing. A delivery to a link task carries its record; only
// the endpoints' (rec nil) look the session up.
type deliverEvent struct {
	rec *linkRec
	s   core.SessionID
	hop int
	pkt core.Packet
	fn  func()
}

// takeDeliver returns a ready-to-schedule callback delivering pkt to hop of
// s — rec's task, or an endpoint if rec is nil — from the free list if it can.
func (n *Network) takeDeliver(rec *linkRec, s core.SessionID, hop int, pkt core.Packet) func() {
	var d *deliverEvent
	if k := len(n.free); k > 0 {
		d = n.free[k-1]
		n.free = n.free[:k-1]
	} else {
		d = &deliverEvent{}
		d.fn = func() {
			rec, s, hop, pkt := d.rec, d.s, d.hop, d.pkt
			d.rec = nil
			n.free = append(n.free, d)
			n.deliver(rec, s, hop, pkt)
		}
	}
	d.rec, d.s, d.hop, d.pkt = rec, s, hop, pkt
	return d.fn
}

// New returns a network over g driven by eng.
func New(g *graph.Graph, eng *sim.Engine, cfg Config) *Network {
	n := &Network{
		cfg:      cfg,
		g:        g,
		eng:      eng,
		sessByID: make([]*Session, 1), // IDs start at 1; slot 0 stays nil
		hops:     make([][]hopRef, 1),
		sessPkts: make([]uint64, 1),
		stats:    metrics.NewPacketStats(cfg.BinSize),
	}
	n.ctl = control.New(g, func(id core.SessionID) uint64 { return n.sessPkts[id] })
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
// reconfigurations (control.Controller.ReconfigPackets), updated when Run
// reaches quiescence; user churn is never counted.
func (n *Network) ReconfigPackets() uint64 { return n.ctl.ReconfigPackets() }

// Reoptimizations returns how many sessions the path policy migrated back
// onto shorter paths (zero under control.Pinned). Disjoint from Migrations,
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
	// Size the per-session tables now, so Emit can index them without
	// bounds games.
	n.hops = append(n.hops, nil)
	n.sessPkts = append(n.sessPkts, 0)
	return s
}

// ScheduleJoin joins the session at virtual time at with the given demand.
// If a topology event broke the session's path before the join fires, the
// join reroutes (or strands the session until a restore reconnects it). A
// Join of a joined session changes its demand. A demand ≤ 0 panics here.
func (n *Network) ScheduleJoin(s *Session, at sim.Time, demand rate.Rate) {
	n.apply(nil, control.CheckDemand(demand))
	n.globalAt(at, func() { n.apply(n.ctl.Join(s.ID, demand), nil) })
}

// ScheduleLeave departs the session at virtual time at. A stranded session
// leaves the strand list; a Leave of a session that is not joined
// dissolves, so churn schedules compose with failure schedules.
func (n *Network) ScheduleLeave(s *Session, at sim.Time) {
	n.globalAt(at, func() { n.apply(n.ctl.Leave(s.ID), nil) })
}

// ScheduleChange changes the session's demand at virtual time at. Changes
// for stranded sessions update the demand they will rejoin with; changes for
// sessions that are not joined dissolve. A demand ≤ 0 panics here.
func (n *Network) ScheduleChange(s *Session, at sim.Time, demand rate.Rate) {
	n.apply(nil, control.CheckDemand(demand))
	n.globalAt(at, func() { n.apply(n.ctl.Change(s.ID, demand), nil) })
}

// ScheduleSetCapacity changes the capacity of the given directed links to c
// at virtual time at. Pass a link and its reverse to reconfigure a duplex
// pair, matching the paper's symmetric link model. Bad input panics here.
func (n *Network) ScheduleSetCapacity(at sim.Time, c rate.Rate, links ...graph.LinkID) {
	n.apply(nil, n.ctl.CheckLinks(c, links))
	ls := append([]graph.LinkID(nil), links...)
	n.globalAt(at, func() {
		for _, l := range ls {
			if int(l) < len(n.links) && n.links[l] != nil {
				n.links[l].task.SetCapacity(c)
			}
			if int(l) < len(n.wires) && n.wires[l] != nil {
				n.wires[l].SetTx(TxTime(c))
			}
		}
		n.apply(n.ctl.SetCapacity(c, ls))
	})
}

// ScheduleLinkFail takes the given directed links down at virtual time at and
// migrates the sessions crossing them. All listed links fail atomically
// before any session reroutes, so a duplex pair cannot leak a reroute onto
// its own reverse direction. An unknown link panics here.
func (n *Network) ScheduleLinkFail(at sim.Time, links ...graph.LinkID) {
	n.apply(nil, n.ctl.CheckLinks(rate.Inf, links))
	ls := append([]graph.LinkID(nil), links...)
	n.globalAt(at, func() { n.apply(n.ctl.Fail(ls)) })
}

// ScheduleLinkRestore brings the given directed links back up at virtual time
// at and readmits stranded sessions it reconnects. Unknown links panic here.
func (n *Network) ScheduleLinkRestore(at sim.Time, links ...graph.LinkID) {
	n.apply(nil, n.ctl.CheckLinks(rate.Inf, links))
	ls := append([]graph.LinkID(nil), links...)
	n.globalAt(at, func() { n.apply(n.ctl.Restore(ls)) })
}

// StrandedSessions returns how many sessions are currently parked without a
// path.
func (n *Network) StrandedSessions() int { return n.ctl.Stranded() }

// Migrations returns how many session reroutes link failures have forced.
// Policy-driven reroutes are counted separately by Reoptimizations.
func (n *Network) Migrations() uint64 { return n.ctl.Migrations() }

// apply executes the controller's actions in order, inside the event that
// called it. Bad link input, a programming error, panics at the Schedule call.
func (n *Network) apply(acts []control.Action, err error) {
	if err != nil {
		panic(err)
	}
	for _, a := range acts {
		switch a.Kind {
		case control.Start:
			if int(a.ID) == len(n.sessByID) { // a successor the controller just minted
				n.newSession(a.ID, n.g.Link(a.Path[0]).From, n.g.Link(a.Path[len(a.Path)-1]).To)
			}
			s := n.sessByID[a.ID]
			s.Path, s.joinedAt = a.Path, n.eng.Now()
			// The one place a path becomes live: resolve its hop table (and
			// the records of links nobody used before) now, in serial
			// context, before the Join below emits the session's first packet.
			n.hops[a.ID] = n.resolveHops(a.Path)
			s.src.Join(a.Demand)
		case control.Leave:
			n.sessByID[a.ID].src.Leave()
		case control.Change:
			n.sessByID[a.ID].src.Change(a.Demand)
		}
	}
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

// port is a foothold on one node: what a protocol task emits through.
// Session endpoints live on their hosts, a RouterLink on the From side of
// its directed link, which is also the sending end of the link's wire. The
// node keys the deliveries an emission schedules. Tasks hold a pointer to a
// port stored next to them (in the Session, in the link's record), so
// binding one allocates nothing.
type port struct {
	n    *Network
	node graph.NodeID
}

// hopRef is what a packet needs to know about one link of its session's
// path: the link's record, the wire a packet going down crosses to leave it,
// and the wire of the reverse link, which a packet going up crosses to
// reach it. A hop is one index into the session's table and the records
// these point at; nothing on the way reads the graph or the link tables.
type hopRef struct {
	rec      *linkRec
	fwd, rev *sim.Wire
}

// linkRec is everything a directed link that carries a task owns, in one
// allocation: the RouterLink (whose table holds its first session inline),
// the port it emits through and the link's own wire, the one the task's
// downstream packets leave on. A link used only in reverse, as the way back
// for another link's upstream packets, has a bare sim.Wire instead.
type linkRec struct {
	task core.RouterLink
	wire sim.Wire
	port port
}

// Emit moves a packet one hop along (or against) the session's path,
// crossing the corresponding physical wire.
func (em *port) Emit(s core.SessionID, from int, dir core.Direction, pkt core.Packet) {
	n := em.n
	if int(s) >= len(n.hops) || n.hops[s] == nil {
		panic(fmt.Sprintf("network: emit for session %d, which has no path", s))
	}
	hops := n.hops[s]
	var to int
	var w *sim.Wire
	if dir == core.Down {
		to = from + 1
		if from >= 1 {
			w = hops[from-1].fwd
		}
	} else {
		to = from - 1
		if from >= 2 {
			w = hops[from-2].rev
		}
	}
	var rec *linkRec
	if 1 <= to && to <= len(hops) {
		// A link task receives it microseconds from now: fetch its record (and
		// on the way up the wire it answers on) while this send goes on.
		rec = hops[to-1].rec
		prefetch(unsafe.Pointer(rec), unsafe.Sizeof(linkRec{}))
		if dir == core.Up && to >= 2 {
			prefetch(unsafe.Pointer(hops[to-2].rev), unsafe.Sizeof(sim.Wire{}))
		}
	}
	deliver := n.takeDeliver(rec, s, to, pkt)
	now := n.eng.Now()
	if w == nil {
		// Intra-host hand-off (source ↔ its access-link task): no wire. Both
		// endpoints live on the source host; the event is keyed by it.
		n.eng.SendFrom(int32(em.node), now, deliver)
		return
	}
	// The packet crosses a physical link: account it (the paper counts
	// every packet sent across a link) and serialize it on the wire.
	n.stats.Record(pkt.Type, now)
	n.sessPkts[s]++
	if n.cfg.OnPacket != nil {
		// The wire's link: the sender's own going down, the reverse of the
		// one below it going up.
		link := n.sessByID[s].Path[min(from, to)-1]
		if dir == core.Up {
			link = n.g.LinkReverse(link)
		}
		n.cfg.OnPacket(link, pkt, now)
	}
	var hold time.Duration
	if n.cfg.Delay != nil {
		hold = n.cfg.Delay()
	}
	n.eng.SendFrom(int32(em.node), w.Depart(now, hold), deliver)
}

// deliver hands pkt to hop of s, fetching the hop-table slot a link task's
// answer reads while the task runs.
func (n *Network) deliver(rec *linkRec, s core.SessionID, hop int, pkt core.Packet) {
	switch {
	case rec != nil:
		prefetch(unsafe.Pointer(&n.hops[s][hop-1]), unsafe.Sizeof(hopRef{}))
		rec.task.Receive(pkt, hop)
	case hop == 0:
		n.sessByID[s].src.Receive(pkt)
	default:
		n.sessByID[s].dst.Receive(pkt, hop)
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
		n.links = append(n.links, make([]*linkRec, want-len(n.links))...)
		n.wires = append(n.wires, make([]*sim.Wire, want-len(n.wires))...)
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
	bare := make([]sim.Wire, unused)
	for i, l := range path {
		// The task first: a link's wire then lands in the task's record.
		hops[i].rec = n.linkRecord(l)
		hops[i].fwd = n.wires[l]
		rev := n.g.LinkReverse(l)
		if n.wires[rev] == nil {
			n.wires[rev] = initWire(&bare[0], n.g.Link(rev))
			bare = bare[1:]
		}
		hops[i].rev = n.wires[rev]
	}
	return hops
}

// linkRecord returns the record of a directed link, creating it at first
// use. Its task executes on the link's From node.
func (n *Network) linkRecord(id graph.LinkID) *linkRec {
	if rec := n.links[id]; rec != nil {
		return rec
	}
	l := n.g.Link(id)
	rec := &linkRec{port: port{n: n, node: l.From}}
	rec.task.Init(core.LinkRef(id), l.Capacity, &rec.port)
	n.links[id] = rec
	if n.wires[id] == nil {
		// Otherwise the link already served as somebody's way back and keeps
		// that wire (and its backlog); the record's own goes unused.
		n.wires[id] = initWire(&rec.wire, l)
	}
	return rec
}

// initWire readies a wire for Emit, which departs packets on it and keys
// their arrivals itself, and returns it.
func initWire(w *sim.Wire, l graph.Link) *sim.Wire {
	w.Init(nil, l.Propagation, TxTime(l.Capacity))
	return w
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
// oracle and every link task's stability (control.Check; rateOf reads no link
// task). With Config.OracleCrossCheck the oracle's rates are checked first.
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
	for l, rec := range n.links {
		if rec != nil && !yield(graph.LinkID(l), &rec.task) {
			return
		}
	}
}
