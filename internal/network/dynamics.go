// Topology dynamics for the simulated network: scheduled link capacity
// changes, failures and restorations, and the executor the control plane
// drives.
//
// Every decision — which sessions migrate, strand, rejoin or move under the
// path policy, which ID a (re)join gets, what counts as reconfiguration
// traffic — belongs to internal/control, shared with the live transport
// (DESIGN.md §6 and §11). The Network schedules the events, calls the
// controller from each, and executes what it decides through transport:
// creating an incarnation's tasks and hop table at its Join, issuing the
// protocol's Join, Leave and Change, reconfiguring a link's task and wire
// in place (core.RouterLink.SetCapacity, which re-probes the crossing
// sessions), and reporting an incarnation's packet count.
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
	n.globalAt(at, func() { n.ctl.SetCapacity(c, ls) })
}

// ScheduleLinkFail takes the given directed links down at virtual time at and
// migrates the sessions crossing them. All listed links fail atomically
// before any session reroutes, so a duplex pair cannot leak a reroute onto
// its own reverse direction.
func (n *Network) ScheduleLinkFail(at sim.Time, links ...graph.LinkID) {
	ls := append([]graph.LinkID(nil), links...)
	n.globalAt(at, func() { n.ctl.Fail(ls) })
}

// ScheduleLinkRestore brings the given directed links back up at virtual time
// at and readmits any stranded sessions whose hosts are reconnected.
func (n *Network) ScheduleLinkRestore(at sim.Time, links ...graph.LinkID) {
	ls := append([]graph.LinkID(nil), links...)
	n.globalAt(at, func() { n.ctl.Restore(ls) })
}

// StrandedSessions returns how many sessions are currently parked without a
// path.
func (n *Network) StrandedSessions() int { return n.ctl.Stranded() }

// Migrations returns how many session reroutes link failures have forced.
// Policy-driven reroutes are counted separately by Reoptimizations.
func (n *Network) Migrations() uint64 { return n.ctl.Migrations() }

// transport is the Network as the controller's executor
// (control.Transport). It is called only from the controller, inside the
// events above and the session churn of network.go.
type transport Network

func (t *transport) Start(id core.SessionID, path graph.Path, demand rate.Rate) {
	n := (*Network)(t)
	if int(id) == len(n.sessByID) { // a successor the controller just minted
		n.newSession(id, n.g.Link(path[0]).From, n.g.Link(path[len(path)-1]).To)
	}
	s := n.sessByID[id]
	s.Path = path
	s.joinedAt = n.eng.Now()
	// The one place a path becomes live: resolve its hop table (and the
	// records of links nobody used before) now, in serial context, before the
	// Join below emits the session's first packet.
	s.hops = n.resolveHops(path)
	s.src.Join(demand)
}

func (t *transport) Leave(id core.SessionID) { t.sessByID[id].src.Leave() }

func (t *transport) Change(id core.SessionID, demand rate.Rate) { t.sessByID[id].src.Change(demand) }

func (t *transport) SetCapacity(l graph.LinkID, c rate.Rate) {
	if int(l) < len(t.links) && t.links[l] != nil {
		t.links[l].SetCapacity(c)
	}
	if int(l) < len(t.wires) && t.wires[l] != nil {
		t.wires[l].SetTx((*Network)(t).txFor(c))
	}
}

func (t *transport) Packets(id core.SessionID) uint64 { return t.sessPkts[id] }
