package bneck

import (
	"fmt"
	"time"

	"bneck/internal/core"
	"bneck/internal/graph"
	"bneck/internal/metrics"
	"bneck/internal/network"
	"bneck/internal/sim"
	"bneck/internal/topology"
)

// Simulation is a B-Neck deployment over a virtual network: protocol tasks
// on every link, a deterministic event-driven transport, and a centralized
// oracle for validation. It is not safe for concurrent use.
type Simulation struct {
	g        *graph.Graph
	topo     topology.Hosted    // nil for hand-built networks
	eng      *sim.Engine        // classic serial engine (nil when sharded)
	she      *sim.ShardedEngine // sharded engine (nil when serial)
	net      *network.Network
	sessions map[SessionID]*Session
}

func newSimulation(g *graph.Graph, topo topology.Hosted, opts ...Option) (*Simulation, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	cfg := network.Config{
		ControlPacketBits: o.controlPacketBits,
		BinSize:           o.binSize,
		PathPolicy:        o.pathPolicy,
		Speculate:         o.speculate,
	}
	// Topologies that know their own hierarchy (internet-scale generation)
	// switch sharded repartitioning to the label-driven hierarchical cut.
	if h, ok := topo.(topology.Hierarchical); ok {
		cfg.Hierarchy = h.Hierarchy
	}
	if o.onRate != nil {
		cb := o.onRate
		cfg.OnRate = func(s core.SessionID, r Rate, at sim.Time) {
			cb(SessionID(s), r, at)
		}
	}
	out := &Simulation{
		g:        g,
		topo:     topo,
		sessions: make(map[SessionID]*Session),
	}
	shards, windowBatch := o.shards, o.windowBatch
	if o.shardsSet && shards == 0 {
		// Auto-tune from the process's usable parallelism (WithShards(0)).
		shards = sim.AutoShards()
		if windowBatch <= 0 {
			windowBatch = sim.AutoWindowBatch()
		}
	}
	if o.shardsSet && shards >= 1 {
		out.she = sim.NewSharded(shards)
		if windowBatch > 0 {
			out.she.SetWindowBatch(windowBatch)
		}
		out.net = network.NewSharded(g, out.she, cfg)
	} else {
		out.eng = sim.New()
		out.net = network.New(g, out.eng, cfg)
	}
	return out, nil
}

// Shards returns how many shards the simulation's engine runs: 1 for the
// classic serial engine, the WithShards value otherwise. Sharded runs are
// byte-identical at every shard count; counts above one advance a single
// run across that many cores.
func (s *Simulation) Shards() int {
	if s.she == nil {
		return 1
	}
	return s.she.Shards()
}

// AddHosts attaches n hosts to random access routers of a generated topology
// (stub routers on transit-stub networks, edge routers on internet-scale
// ones). It errors on hand-built networks (add hosts through the builder
// there).
func (s *Simulation) AddHosts(n int) ([]Node, error) {
	if s.topo == nil {
		return nil, fmt.Errorf("bneck: AddHosts requires a generated topology")
	}
	ids := s.topo.AddHosts(n)
	out := make([]Node, len(ids))
	for i, id := range ids {
		out[i] = Node{id: id}
	}
	return out, nil
}

// RandomHostPair draws a distinct source/destination pair on a generated
// topology.
func (s *Simulation) RandomHostPair() (Node, Node, error) {
	if s.topo == nil {
		return Node{}, Node{}, fmt.Errorf("bneck: RandomHostPair requires a generated topology")
	}
	a, b := s.topo.RandomHostPair()
	return Node{id: a}, Node{id: b}, nil
}

// Session creates a session from src to dst along a shortest path. The
// session is inert until JoinAt.
func (s *Simulation) Session(src, dst Node) (*Session, error) {
	path, err := s.net.HostPath(src.id, dst.id)
	if err != nil {
		return nil, err
	}
	ns, err := s.net.NewSession(src.id, dst.id, path)
	if err != nil {
		return nil, err
	}
	sess := &Session{sim: s, inner: ns}
	s.sessions[SessionID(ns.ID)] = sess
	return sess, nil
}

// Now returns the current virtual time.
func (s *Simulation) Now() time.Duration {
	if s.she != nil {
		return s.she.Now()
	}
	return s.eng.Now()
}

// RunToQuiescence advances virtual time until the protocol goes silent and
// returns the state of the world. It may be called repeatedly as dynamics
// are scheduled.
func (s *Simulation) RunToQuiescence() Report {
	q := s.net.Run()
	rates := make(map[SessionID]Rate)
	for _, ns := range s.net.Sessions() {
		if !ns.Active() {
			continue
		}
		if r, ok := ns.Rate(); ok {
			rates[SessionID(ns.ID)] = r
		}
	}
	return Report{
		Quiescence: q,
		Packets:    s.net.Stats().Total(),
		Rates:      rates,
	}
}

// StepUntil advances virtual time to t, processing due events (for
// observing transients). It goes through the network so a sharded
// simulation installs its partition even when StepUntil is the first
// advance.
func (s *Simulation) StepUntil(t time.Duration) { s.net.RunUntil(t) }

// Validate cross-checks every active session's granted rate against the
// centralized water-filling oracle and every link task's stability
// (Definition 2 of the paper). Call it after RunToQuiescence.
func (s *Simulation) Validate() error { return s.net.Validate() }

// Oracle returns the max-min fair rates of the currently active sessions as
// computed centrally (Figure 1 of the paper), without touching the
// distributed state.
func (s *Simulation) Oracle() (map[SessionID]Rate, error) {
	m, err := s.net.Oracle()
	if err != nil {
		return nil, err
	}
	out := make(map[SessionID]Rate, len(m))
	for id, r := range m {
		out[SessionID(id)] = r
	}
	return out, nil
}

// Packets returns the cumulative number of control packets sent across
// links.
func (s *Simulation) Packets() uint64 { return s.net.Stats().Total() }

// TrafficBins returns per-interval packet counts by type (Figure 6's view
// of the control traffic).
func (s *Simulation) TrafficBins() []metrics.Bin { return s.net.Stats().Bins() }

// Link is a handle to one duplex link, used to schedule topology events.
// Events apply to both directions, matching the paper's symmetric link
// model. Handles come from NetworkBuilder.Link (bound at Build) or from
// Simulation.RouterLinks / Simulation.LinkBetween.
type Link struct {
	sim    *Simulation
	ab, ba graph.LinkID
}

func (l *Link) check() {
	if l.sim == nil {
		panic("bneck: Link not bound to a Simulation (Build the network first)")
	}
}

// SetCapacityAt schedules a capacity change of both directions to c at
// virtual time at. Sessions crossing the link re-probe through the
// protocol's own dynamics and the network re-quiesces; run
// RunToQuiescence and Validate afterwards.
func (l *Link) SetCapacityAt(at time.Duration, c Rate) {
	l.check()
	l.sim.net.ScheduleSetCapacity(at, c, l.ab, l.ba)
}

// FailAt schedules both directions to go down at virtual time at. Sessions
// whose path crosses the link migrate onto surviving paths via the
// protocol's own Leave → reroute → Join; sessions with no surviving path are
// stranded until a restore reconnects them.
func (l *Link) FailAt(at time.Duration) {
	l.check()
	l.sim.net.ScheduleLinkFail(at, l.ab, l.ba)
}

// RestoreAt schedules both directions to come back up at virtual time at.
// Stranded sessions rejoin automatically with their last demand; routed
// sessions keep their pinned paths.
func (l *Link) RestoreAt(at time.Duration) {
	l.check()
	l.sim.net.ScheduleLinkRestore(at, l.ab, l.ba)
}

// Capacity returns the link's current capacity (both directions are
// symmetric under this API).
func (l *Link) Capacity() Rate {
	l.check()
	return l.sim.g.Link(l.ab).Capacity
}

// Up reports whether the link is currently up.
func (l *Link) Up() bool {
	l.check()
	return l.sim.g.LinkUp(l.ab)
}

// Ends returns the two nodes the link connects.
func (l *Link) Ends() (Node, Node) {
	l.check()
	gl := l.sim.g.Link(l.ab)
	return Node{id: gl.From}, Node{id: gl.To}
}

// RouterLinks returns duplex handles for every router–router link of the
// network, in insertion order — the natural targets for failure injection on
// generated transit-stub topologies (host access links can fail too, via
// LinkBetween).
func (s *Simulation) RouterLinks() []*Link {
	var out []*Link
	for id := 0; id < s.g.NumLinks(); id++ {
		l := s.g.Link(graph.LinkID(id))
		if l.Reverse == graph.NoLink || l.Reverse < l.ID {
			continue // visit each duplex pair once, from its first direction
		}
		if s.g.Node(l.From).Kind != graph.Router || s.g.Node(l.To).Kind != graph.Router {
			continue
		}
		out = append(out, &Link{sim: s, ab: l.ID, ba: l.Reverse})
	}
	return out
}

// LinkBetween returns the duplex link connecting two adjacent nodes, if one
// exists.
func (s *Simulation) LinkBetween(x, y Node) (*Link, bool) {
	for _, lid := range s.g.Out(x.id) {
		l := s.g.Link(lid)
		if l.To == y.id && l.Reverse != graph.NoLink {
			return &Link{sim: s, ab: l.ID, ba: l.Reverse}, true
		}
	}
	return nil, false
}

// StrandedSessions returns how many sessions are parked without a path after
// link failures (they rejoin automatically on restore).
func (s *Simulation) StrandedSessions() int { return s.net.StrandedSessions() }

// Migrations returns how many session reroutes link failures have forced.
// Policy-driven reroutes are counted separately by Reoptimizations.
func (s *Simulation) Migrations() uint64 { return s.net.Migrations() }

// Reoptimizations returns how many sessions the path policy
// (WithPathPolicy) migrated back onto shorter paths. Always zero under the
// default Pinned policy.
func (s *Simulation) Reoptimizations() uint64 { return s.net.Reoptimizations() }

// SpeculationStats counts optimistic window execution outcomes on a sharded
// simulation (WithSpeculation): forked attempts, committed attempts,
// replayed attempts (some shard parked and its suffix re-ran under the
// conservative bound), and the events executed inside speculative windows.
type SpeculationStats struct {
	Attempts uint64
	Commits  uint64
	Replays  uint64
	Events   uint64
}

// SpeculationStats returns the cumulative optimistic-execution counters.
// All zero on the classic engine or with speculation off. The outcome
// counts depend on goroutine timing when windows run in parallel —
// simulation results never do.
func (s *Simulation) SpeculationStats() SpeculationStats {
	st := s.net.SpeculationStats()
	return SpeculationStats{Attempts: st.Attempts, Commits: st.Commits, Replays: st.Replays, Events: st.Events}
}

// ReconfigPackets returns the cumulative control-packet cost of topology
// reconfigurations: the Leave-cascade packets of every force-departed
// session plus the Join-cascade packets of every topology-driven rejoin —
// failure migrations, policy re-optimizations and strand rejoins — each
// measured until the quiescence that follows it. The counter is updated by
// RunToQuiescence; packets from scheduled user churn are never counted.
// Together with Packets it quantifies what a reconfiguration costs.
func (s *Simulation) ReconfigPackets() uint64 { return s.net.ReconfigPackets() }

// Session is a handle to one session.
type Session struct {
	sim   *Simulation
	inner *network.Session
}

// ID returns the session's current identifier. A topology-event migration
// mints a fresh identifier (Report.Rates is keyed by current IDs).
func (s *Session) ID() SessionID { return SessionID(s.inner.Current().ID) }

// JoinAt schedules API.Join(s, demand) at virtual time at (which must not be
// in the past).
func (s *Session) JoinAt(at time.Duration, demand Rate) {
	s.sim.net.ScheduleJoin(s.inner, at, demand)
}

// LeaveAt schedules API.Leave(s) at virtual time at.
func (s *Session) LeaveAt(at time.Duration) {
	s.sim.net.ScheduleLeave(s.inner, at)
}

// ChangeAt schedules API.Change(s, demand) at virtual time at.
func (s *Session) ChangeAt(at time.Duration, demand Rate) {
	s.sim.net.ScheduleChange(s.inner, at, demand)
}

// Rate returns the last granted rate (ok reports whether one exists yet).
func (s *Session) Rate() (Rate, bool) { return s.inner.Rate() }

// Converged reports whether the network has confirmed the session's current
// rate as max-min fair.
func (s *Session) Converged() bool { return s.inner.Converged() }

// Active reports whether the session has joined and not left.
func (s *Session) Active() bool { return s.inner.Active() }

// Stranded reports whether link failures left the session without a path
// between its hosts (it rejoins automatically on restore).
func (s *Session) Stranded() bool { return s.inner.Stranded() }

// PathLen returns the number of links on the session's current path (it can
// change when topology events migrate the session).
func (s *Session) PathLen() int { return len(s.inner.Current().Path) }
