// Topology dynamics for the simulated network: scheduled link capacity
// changes, failures and restorations, with session migration driven by the
// protocol's own primitives.
//
// The model is administrative reconfiguration ("fail by drain"): when a link
// goes down, every session crossing it departs through a normal Leave — whose
// control packets are allowed to traverse the failing link one last time to
// tear down table state — and a successor session (fresh ID) joins along a
// path that avoids the failed link. B-Neck's ordinary Join/Leave dynamics
// then re-establish max-min fairness and quiescence; there is no global
// reset. Sessions whose hosts become disconnected are parked ("stranded") and
// rejoin automatically, with their last demand, when a restore reconnects
// them. Capacity changes keep paths intact and instead reconfigure the
// RouterLink task in place (core.RouterLink.SetCapacity), which re-probes the
// crossing sessions.
//
// Routed sessions keep their pinned paths across restores by default. An
// optional path re-optimization policy (Config.PathPolicy, see
// internal/policy) sweeps the active population when a restore — or a
// capacity increase past the policy's threshold — signals that shorter
// paths may exist, and migrates sessions back through the same
// Leave → reroute → Join machinery.
package network

import (
	"bneck/internal/core"
	"bneck/internal/graph"
	"bneck/internal/rate"
	"bneck/internal/sim"
)

// ScheduleSetCapacity changes the capacity of the given directed links to c
// at virtual time at. Pass a link and its reverse to reconfigure a duplex
// pair, matching the paper's symmetric link model.
func (n *Network) ScheduleSetCapacity(at sim.Time, c rate.Rate, links ...graph.LinkID) {
	ls := append([]graph.LinkID(nil), links...)
	n.globalAt(at, func() { n.applySetCapacity(c, ls) })
}

// ScheduleLinkFail takes the given directed links down at virtual time at and
// migrates the sessions crossing them. All listed links fail atomically
// before any session reroutes, so a duplex pair cannot leak a reroute onto
// its own reverse direction.
func (n *Network) ScheduleLinkFail(at sim.Time, links ...graph.LinkID) {
	ls := append([]graph.LinkID(nil), links...)
	n.globalAt(at, func() { n.applyFail(ls) })
}

// ScheduleLinkRestore brings the given directed links back up at virtual time
// at and readmits any stranded sessions whose hosts are reconnected.
func (n *Network) ScheduleLinkRestore(at sim.Time, links ...graph.LinkID) {
	ls := append([]graph.LinkID(nil), links...)
	n.globalAt(at, func() { n.applyRestore(ls) })
}

// StrandedSessions returns how many sessions are currently parked without a
// path.
func (n *Network) StrandedSessions() int { return len(n.stranded) }

// Migrations returns how many session reroutes link failures have forced.
// Policy-driven reroutes are counted separately by Reoptimizations.
func (n *Network) Migrations() uint64 { return n.migrated }

func (n *Network) applySetCapacity(c rate.Rate, links []graph.LinkID) {
	// Capacity increases past the policy's threshold fire a re-optimization
	// sweep: the upgrade is an operator signal that traffic belongs back on
	// the link (min-hop best paths themselves never depend on capacity), so
	// sessions whose best path crosses an upgraded link migrate on any
	// strict improvement, hysteresis bypassed.
	var upgraded map[graph.LinkID]bool
	for _, l := range links {
		old := n.g.Link(l).Capacity
		n.g.SetCapacity(l, c)
		if int(l) < len(n.links) && n.links[l] != nil {
			n.links[l].SetCapacity(c)
		}
		if int(l) < len(n.wires) && n.wires[l] != nil {
			n.wires[l].SetTx(n.txFor(c))
		}
		if n.cfg.PathPolicy.CapacityTriggers(old, c) {
			if upgraded == nil {
				upgraded = make(map[graph.LinkID]bool, len(links))
			}
			upgraded[l] = true
		}
	}
	if upgraded != nil {
		n.reoptimizeSessions(upgraded)
	}
}

func (n *Network) applyFail(links []graph.LinkID) {
	failed := make(map[graph.LinkID]bool, len(links))
	for _, l := range links {
		if n.g.LinkUp(l) {
			n.g.FailLink(l)
			failed[l] = true
		}
	}
	if len(failed) == 0 {
		return
	}
	// Migrate affected sessions in creation order (determinism). Snapshot the
	// order first: migration appends successor sessions, whose fresh paths
	// need no second look.
	ids := append([]core.SessionID(nil), n.order...)
	for _, id := range ids {
		s := n.sessByID[id]
		if !s.active || !pathCrossesAny(s.Path, failed) {
			continue
		}
		n.migrate(s)
	}
}

func (n *Network) applyRestore(links []graph.LinkID) {
	restored := false
	for _, l := range links {
		if !n.g.LinkUp(l) {
			n.g.RestoreLink(l)
			restored = true
		}
	}
	if !restored {
		return
	}
	// Readmit stranded sessions in strand order; those still unroutable stay
	// parked for the next restore.
	if len(n.stranded) > 0 {
		waiting := n.stranded
		n.stranded = nil
		for _, s := range waiting {
			path, err := n.resolver.HostPath(s.SrcHost, s.DstHost)
			if err != nil {
				n.stranded = append(n.stranded, s)
				continue
			}
			s.stranded = false
			n.markReconfigJoin(n.joinOnPath(s, path, s.strandedDemand))
		}
	}
	// Restore-triggered re-optimization: the restored link may have
	// re-enabled shorter paths, so the policy sweeps the active population
	// (a no-op under policy.Pinned). Readmitted sessions just resolved a
	// fresh shortest path and pass the sweep untouched.
	n.reoptimizeSessions(nil)
}

// reoptimizeSessions re-runs shortest-path over the active sessions in
// creation order and migrates — Leave, successor Join, fresh incarnation,
// the exact machinery failures use — every session the policy says is too
// far off its best path. upgraded, when non-nil, marks the capacity-trigger
// sweep: sessions whose best path crosses an upgraded link bypass the
// hysteresis.
func (n *Network) reoptimizeSessions(upgraded map[graph.LinkID]bool) {
	if !n.cfg.PathPolicy.Enabled() {
		return
	}
	// Snapshot the order: migration appends successor sessions, whose fresh
	// shortest paths need no second look.
	ids := append([]core.SessionID(nil), n.order...)
	for _, id := range ids {
		s := n.sessByID[id]
		if !s.active {
			continue
		}
		best, err := n.resolver.HostPath(s.SrcHost, s.DstHost)
		if err != nil {
			continue // active sessions always have a path; belt and braces
		}
		bypass := upgraded != nil && pathCrossesAny(best, upgraded)
		if !n.cfg.PathPolicy.ShouldMigrate(len(s.Path), len(best), bypass) {
			continue
		}
		n.reroute(s, best)
	}
}

// reroute retires an active session through Leave and joins a successor on
// path — the migrate machinery, driven by the path policy instead of a
// failure.
func (n *Network) reroute(s *Session, path graph.Path) {
	demand := n.forceDepart(s)
	n.reoptimized++
	n.rejoinSuccessor(s, path, demand, "re-optimization")
}

// forceDepart retires an active session through Leave — the shared first
// half of every topology-driven reroute (failure migration and policy
// re-optimization) — and returns the demand its successor rejoins with.
func (n *Network) forceDepart(s *Session) rate.Rate {
	demand := s.src.Demand()
	n.beginTeardown(s)
	s.active = false
	s.departed = true
	s.src.Leave()
	return demand
}

// rejoinSuccessor joins a fresh-ID successor of s on path — the shared
// second half of every topology-driven reroute. what names the caller in
// the impossible-path panic.
func (n *Network) rejoinSuccessor(s *Session, path graph.Path, demand rate.Rate, what string) {
	succ, err := n.NewSession(s.SrcHost, s.DstHost, path)
	if err != nil {
		// The resolver only returns valid up paths.
		panic("network: " + what + " produced invalid path: " + err.Error())
	}
	s.succ = succ
	n.markReconfigJoin(succ)
	n.join(succ, demand)
}

// migrate departs an active session through Leave and rejoins a successor on
// a surviving path, or strands the session if none exists.
func (n *Network) migrate(s *Session) {
	demand := n.forceDepart(s)
	path, err := n.resolver.HostPath(s.SrcHost, s.DstHost)
	if err != nil {
		s.stranded = true
		s.strandedDemand = demand
		n.stranded = append(n.stranded, s)
		return
	}
	n.migrated++
	n.rejoinSuccessor(s, path, demand, "migration")
}

// joinOrStrand runs a scheduled join, rerouting around links that failed
// since the session's path was resolved.
func (n *Network) joinOrStrand(s *Session, demand rate.Rate) {
	if s.stranded {
		// Already parked by a failure; the join's demand wins.
		s.strandedDemand = demand
		return
	}
	if n.pathUp(s.Path) {
		// joinOnPath applies the fresh-ID rule: a session rejoining after a
		// Leave gets a successor incarnation, so stale responses of the
		// departed lifetime can never be mistaken for the new one's.
		n.joinOnPath(s, s.Path, demand)
		return
	}
	path, err := n.resolver.HostPath(s.SrcHost, s.DstHost)
	if err != nil {
		s.stranded = true
		s.strandedDemand = demand
		n.stranded = append(n.stranded, s)
		return
	}
	n.joinOnPath(s, path, demand)
}

// joinOnPath (re)admits s along path and returns the session that actually
// joined. A session whose ID never carried traffic can simply adopt the
// path; otherwise a successor with a fresh ID joins, so straggler packets of
// the old incarnation cannot corrupt state on shared links.
func (n *Network) joinOnPath(s *Session, path graph.Path, demand rate.Rate) *Session {
	if !s.everJoined || buggyRejoinReuse {
		s.Path = path
		n.join(s, demand)
		return s
	}
	succ, err := n.NewSession(s.SrcHost, s.DstHost, path)
	if err != nil {
		panic("network: rejoin produced invalid path: " + err.Error())
	}
	s.succ = succ
	n.join(succ, demand)
	return succ
}

func (n *Network) join(s *Session, demand rate.Rate) {
	s.active = true
	s.everJoined = true
	s.joinedAt = n.eng.Now()
	// The one place a path becomes live: resolve its hop table (and the
	// records of links nobody used before) now, in serial context, before the
	// Join below emits the session's first packet.
	s.hops = n.resolveHops(s.Path)
	s.src.Join(demand)
}

// unstrand removes a parked session (a Leave arrived before any restore).
func (n *Network) unstrand(s *Session) {
	s.stranded = false
	s.departed = true
	for i, p := range n.stranded {
		if p == s {
			n.stranded = append(n.stranded[:i], n.stranded[i+1:]...)
			return
		}
	}
}

func pathCrossesAny(p graph.Path, links map[graph.LinkID]bool) bool {
	for _, l := range p {
		if links[l] {
			return true
		}
	}
	return false
}

func (n *Network) pathUp(p graph.Path) bool {
	for _, l := range p {
		if !n.g.LinkUp(l) {
			return false
		}
	}
	return true
}
