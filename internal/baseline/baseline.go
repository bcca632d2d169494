// Package baseline implements the three non-quiescent comparison protocols
// of the paper's Experiment 3:
//
//   - BFYZ-style: per-session state at links, consistent-marking explicit
//     rates (the Charny/ATM-ABR family BFYZ belongs to)
//   - CG-style: constant per-link state, periodic share adaptation
//     (Cobb–Gouda family)
//   - RCP: processor-sharing congestion control with the published RCP
//     control law
//
// All three share the same execution shape, which is exactly what makes
// them non-quiescent: every source re-probes its path forever on a fixed
// period, so control traffic never stops (Figure 8), and transient rate
// estimates can exceed the fair rates (Figure 7). Rates here are float64:
// these protocols are approximate by design, none of their decisions
// depends on exact equality.
//
// The exact BFYZ and CG pseudocode is not reproduced in the B-Neck paper;
// DESIGN.md documents the substitution rationale.
package baseline

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"bneck/internal/core"
	"bneck/internal/graph"
	"bneck/internal/metrics"
	"bneck/internal/network"
	"bneck/internal/sim"
)

// LinkAlgo is the per-link behavior that distinguishes the protocols.
type LinkAlgo interface {
	// Forward processes a downstream probe: the session requests req (its
	// demand capped by upstream links); the link returns the rate it can
	// offer.
	Forward(s core.SessionID, req float64) float64
	// Reverse processes the upstream response carrying the end-to-end
	// granted rate.
	Reverse(s core.SessionID, granted float64)
	// Remove clears any per-session state on leave.
	Remove(s core.SessionID)
	// Tick runs the link's periodic control-law update (may be a no-op).
	Tick(period time.Duration)
}

// Protocol builds per-link algorithm instances.
type Protocol interface {
	Name() string
	NewLink(capacity float64) LinkAlgo
}

// Period is the source re-probe interval and the link control-law tick;
// BinSize bins packet counts over time (Figure 8's 3 ms).
const (
	Period  = 5 * time.Millisecond
	BinSize = 3 * time.Millisecond
)

// Config tunes a baseline run.
type Config struct {
	// Seed randomizes per-session probe phases.
	Seed int64
}

// Session is one session run by a baseline protocol.
type Session struct {
	ID     core.SessionID
	Path   graph.Path
	Demand float64
	rate   float64
	active bool
}

// Rate returns the session's current rate estimate.
func (s *Session) Rate() float64 { return s.rate }

// Active reports whether the session is running.
func (s *Session) Active() bool { return s.active }

// Harness runs a baseline protocol over the simulator: per-session periodic
// probe cycles (down the path and back), per-link periodic ticks.
type Harness struct {
	g         *graph.Graph
	eng       *sim.Engine
	proto     Protocol
	links     map[graph.LinkID]LinkAlgo
	linkOrder []graph.LinkID
	wires     map[graph.LinkID]*sim.Wire
	sessions  map[core.SessionID]*Session
	order     []core.SessionID
	stats     *metrics.PacketStats
	rng       *rand.Rand
	nextID    core.SessionID
	stopAt    sim.Time // probes scheduled past this time are suppressed
}

// NewHarness returns a baseline runner over g driven by eng.
func NewHarness(g *graph.Graph, eng *sim.Engine, proto Protocol, cfg Config) *Harness {
	return &Harness{
		g:        g,
		eng:      eng,
		proto:    proto,
		links:    make(map[graph.LinkID]LinkAlgo),
		wires:    make(map[graph.LinkID]*sim.Wire),
		sessions: make(map[core.SessionID]*Session),
		stats:    metrics.NewPacketStats(BinSize),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		nextID:   1,
		stopAt:   math.MaxInt64,
	}
}

// Stats returns the packet statistics collector.
func (h *Harness) Stats() *metrics.PacketStats { return h.stats }

// Protocol returns the protocol under test.
func (h *Harness) Protocol() Protocol { return h.proto }

// Sessions returns all sessions in creation order.
func (h *Harness) Sessions() []*Session {
	out := make([]*Session, 0, len(h.order))
	for _, id := range h.order {
		out = append(out, h.sessions[id])
	}
	return out
}

// NewSession registers a session; schedule its join separately.
func (h *Harness) NewSession(path graph.Path, demand float64) (*Session, error) {
	if err := graph.ValidatePath(h.g, path); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	s := &Session{ID: h.nextID, Path: path, Demand: demand}
	h.nextID++
	h.sessions[s.ID] = s
	h.order = append(h.order, s.ID)
	return s, nil
}

// ScheduleJoin activates the session at time at; its first probe fires
// immediately, later ones every Period (with a random initial phase to
// desynchronize sources).
func (h *Harness) ScheduleJoin(s *Session, at sim.Time) {
	h.eng.At(at, func() {
		s.active = true
		h.probe(s)
	})
}

// ScheduleLeave deactivates the session and clears its path state.
func (h *Harness) ScheduleLeave(s *Session, at sim.Time) {
	h.eng.At(at, func() {
		s.active = false
		s.rate = 0
		for _, l := range s.Path {
			h.link(l).Remove(s.ID)
		}
	})
}

// StopProbing prevents scheduling probes past t, so RunUntil(t) terminates
// even though the protocols are non-quiescent.
func (h *Harness) StopProbing(t sim.Time) { h.stopAt = t }

// StartTicks begins the per-link periodic control-law updates. Call once,
// before Run.
func (h *Harness) StartTicks() {
	var tick func()
	tick = func() {
		for _, id := range h.linkOrder {
			h.links[id].Tick(Period)
		}
		next := h.eng.Now() + Period
		if next <= h.stopAt {
			h.eng.DaemonAt(next, tick)
		}
	}
	h.eng.DaemonAt(h.eng.Now()+Period, tick)
}

// probe runs one full probe cycle for s as a chain of wire deliveries, then
// schedules the next cycle.
func (h *Harness) probe(s *Session) {
	if !s.active || h.eng.Now() > h.stopAt {
		return
	}
	h.forward(s, 0, s.Demand)
}

// forward advances the downstream pass at path index i.
func (h *Harness) forward(s *Session, i int, req float64) {
	if !s.active {
		return
	}
	if i == len(s.Path) {
		// Destination reached: turn around.
		h.reverse(s, len(s.Path)-1, req)
		return
	}
	granted := h.link(s.Path[i]).Forward(s.ID, req)
	if granted > req {
		granted = req
	}
	h.stats.Record(core.PktProbe, h.eng.Now())
	h.wire(s.Path[i]).Send(func() { h.forward(s, i+1, granted) })
}

// reverse advances the upstream pass at path index i.
func (h *Harness) reverse(s *Session, i int, granted float64) {
	if !s.active {
		return
	}
	if i < 0 {
		// Back at the source: adopt the rate, schedule the next cycle.
		s.rate = granted
		next := h.eng.Now() + h.jittered()
		if next <= h.stopAt {
			h.eng.At(next, func() { h.probe(s) })
		}
		return
	}
	h.link(s.Path[i]).Reverse(s.ID, granted)
	h.stats.Record(core.PktResponse, h.eng.Now())
	rev := h.g.Link(s.Path[i]).Reverse
	h.wire(rev).Send(func() { h.reverse(s, i-1, granted) })
}

// jittered returns the probe period with ±10% jitter, preventing lockstep
// probe storms.
func (h *Harness) jittered() time.Duration {
	p := int64(Period)
	return time.Duration(p - p/10 + h.rng.Int63n(p/5+1))
}

func (h *Harness) link(id graph.LinkID) LinkAlgo {
	if a, ok := h.links[id]; ok {
		return a
	}
	a := h.proto.NewLink(h.g.Capacity(id).Float64())
	h.links[id] = a
	h.linkOrder = append(h.linkOrder, id)
	return a
}

func (h *Harness) wire(id graph.LinkID) *sim.Wire {
	if w, ok := h.wires[id]; ok {
		return w
	}
	l := h.g.Link(id)
	w := sim.NewWire(h.eng, l.Propagation, network.TxTime(l.Capacity))
	h.wires[id] = w
	return w
}
