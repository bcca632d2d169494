// The incremental validation oracle: a waterfill.Incremental mirror of the
// active session population. Every churn and topology funnel — join, leave,
// demand change, capacity change, link fail/restore — feeds the mirror a
// delta as it executes (always in serial/barrier context, so the delta
// stream is deterministic at every shard count), and Oracle re-levels only
// the affected bottleneck component instead of re-solving the whole
// instance per validation epoch. Rates are byte-identical to the full
// solver's — max-min rates are unique and rate.Rate is canonical — so
// enabling the mirror changes validation cost, never validation outcome.

package network

import (
	"bneck/internal/graph"
	"bneck/internal/rate"
	"bneck/internal/waterfill"
)

// incOracle pairs the incremental solver with the translation tables from
// network identifiers to solver handles.
type incOracle struct {
	inc *waterfill.Incremental
	// linkOf maps LinkID → solver link handle, grown on demand; -1 until a
	// session's path (or a capacity/failure event on a known link) first
	// touches the link, so unused links of an internet-scale graph never
	// materialize in the solver.
	linkOf []int32
	// sessOf maps session ID → solver session handle while active; -1
	// otherwise. Dense like sessByID: Oracle walks it once per epoch.
	sessOf  []int32
	pathBuf []int
}

func newIncOracle(cfg Config) *incOracle {
	if !cfg.IncrementalOracle && !cfg.OracleCrossCheck {
		return nil
	}
	o := &incOracle{inc: waterfill.NewIncremental()}
	o.inc.CrossCheck = cfg.OracleCrossCheck
	if cfg.OracleFallbackPercent > 0 {
		o.inc.FallbackPercent = cfg.OracleFallbackPercent
	}
	return o
}

// handleFor returns the solver handle of a link, creating it at the link's
// current capacity on first use.
func (o *incOracle) handleFor(n *Network, l graph.LinkID) int {
	for len(o.linkOf) < n.g.NumLinks() {
		o.linkOf = append(o.linkOf, -1)
	}
	if o.linkOf[l] < 0 {
		o.linkOf[l] = int32(o.inc.AddLink(n.g.Link(l).Capacity))
	}
	return int(o.linkOf[l])
}

// known returns the solver handle of a link if it has one; links no session
// ever crossed have no solver state, and events on them need no delta.
func (o *incOracle) known(l graph.LinkID) (int, bool) {
	if int(l) >= len(o.linkOf) || o.linkOf[l] < 0 {
		return 0, false
	}
	return int(o.linkOf[l]), true
}

// oracleJoin mirrors a session activation. Runs in serial context (join is
// a global/barrier event), like every other delta hook.
func (n *Network) oracleJoin(s *Session, demand rate.Rate) {
	o := n.incOracle
	if o == nil {
		return
	}
	o.pathBuf = o.pathBuf[:0]
	for _, l := range s.Path {
		o.pathBuf = append(o.pathBuf, o.handleFor(n, l))
	}
	h := o.inc.SessionJoin(demand, o.pathBuf)
	for len(o.sessOf) <= int(s.ID) {
		o.sessOf = append(o.sessOf, -1)
	}
	o.sessOf[s.ID] = int32(h)
}

// oracleLeave mirrors a session departure (voluntary or topology-forced).
func (n *Network) oracleLeave(s *Session) {
	o := n.incOracle
	if o == nil {
		return
	}
	if int(s.ID) < len(o.sessOf) && o.sessOf[s.ID] >= 0 {
		o.inc.SessionLeave(int(o.sessOf[s.ID]))
		o.sessOf[s.ID] = -1
	}
}

// oracleChange mirrors a demand change: the same path rejoins under the new
// demand (a demand is a private virtual link in the solver, so a change is
// a leave/join pair on the solver side).
func (n *Network) oracleChange(s *Session, demand rate.Rate) {
	o := n.incOracle
	if o == nil {
		return
	}
	n.oracleLeave(s)
	n.oracleJoin(s, demand)
}

func (n *Network) oracleSetCapacity(l graph.LinkID, c rate.Rate) {
	o := n.incOracle
	if o == nil {
		return
	}
	if h, ok := o.known(l); ok {
		o.inc.SetCapacity(h, c)
	}
}

func (n *Network) oracleFail(l graph.LinkID) {
	o := n.incOracle
	if o == nil {
		return
	}
	if h, ok := o.known(l); ok {
		o.inc.FailLink(h)
	}
}

func (n *Network) oracleRestore(l graph.LinkID) {
	o := n.incOracle
	if o == nil {
		return
	}
	if h, ok := o.known(l); ok {
		o.inc.RestoreLink(h)
	}
}

// incrementalRates is the delta-driven body of oracleRates: flush the
// pending deltas (re-leveling the affected component) and read the rates off
// the solver state.
func (n *Network) incrementalRates() ([]rate.Rate, error) {
	o := n.incOracle
	if err := o.inc.Flush(); err != nil {
		return nil, err
	}
	out := make([]rate.Rate, 0, o.inc.LiveSessions())
	for _, id := range n.order {
		if n.sessByID[id].active {
			out = append(out, o.inc.Rate(int(o.sessOf[id])))
		}
	}
	return out, nil
}

// OracleStats reports how the incremental oracle resolved its flushes; ok is
// false when the incremental oracle is disabled.
func (n *Network) OracleStats() (stats waterfill.IncrementalStats, ok bool) {
	if n.incOracle == nil {
		return waterfill.IncrementalStats{}, false
	}
	return n.incOracle.inc.Stats(), true
}
