package main

import (
	"bneck/internal/core"
	"bneck/internal/graph"
	"bneck/internal/rate"
)

// pump runs the protocol tasks of internal/core with no engine and no
// transport underneath: it is the core.Emitter, and it delivers emitted
// packets from one global FIFO queue until none is left. That is one valid
// asynchronous schedule (handlers are atomic, per-link order is FIFO), so
// the tasks converge to the max-min rates exactly as under a transport, and
// the time it takes is the protocol layer's alone. Tables are dense slices,
// like the simulator transport's, so look-ups do not inflate the figure.
type pump struct {
	capOf    func(graph.LinkID) rate.Rate
	links    []*core.RouterLink // by LinkID
	sessions []*pumpSession     // by SessionID
	tasks    int                // RouterLink tasks created

	queue []pumpMsg
	head  int
	// wirePackets counts emissions that would cross a physical link — the
	// same packets the transports count; source ↔ access-link hand-offs
	// are not among them.
	wirePackets uint64
}

type pumpSession struct {
	path    graph.Path
	src     *core.SourceNode
	dst     *core.DestinationNode
	granted rate.Rate
	has     bool
}

type pumpMsg struct {
	s   core.SessionID
	hop int
	pkt core.Packet
}

func newPump(capOf func(graph.LinkID) rate.Rate) *pump { return &pump{capOf: capOf} }

// Emit implements core.Emitter.
func (p *pump) Emit(s core.SessionID, from int, dir core.Direction, pkt core.Packet) {
	to := from + 1
	if dir == core.Up {
		to = from - 1
	}
	if (dir == core.Down && from >= 1) || (dir == core.Up && from >= 2) {
		p.wirePackets++
	}
	p.queue = append(p.queue, pumpMsg{s, to, pkt})
}

func (p *pump) link(id graph.LinkID) *core.RouterLink {
	for int(id) >= len(p.links) {
		p.links = append(p.links, nil)
	}
	if p.links[id] == nil {
		p.links[id] = core.NewRouterLink(core.LinkRef(id), p.capOf(id), p)
		p.tasks++
	}
	return p.links[id]
}

func (p *pump) join(id core.SessionID, path graph.Path, demand rate.Rate) {
	for int(id) >= len(p.sessions) {
		p.sessions = append(p.sessions, nil)
	}
	ps := &pumpSession{path: path}
	ps.src = core.NewSourceNode(id, p, func(_ core.SessionID, r rate.Rate) { ps.granted, ps.has = r, true })
	ps.dst = core.NewDestinationNode(id, p)
	p.sessions[id] = ps
	for _, l := range path {
		p.link(l) // tasks exist before the first packet, as under a transport
	}
	ps.src.Join(demand)
}

func (p *pump) leave(id core.SessionID)               { p.sessions[id].src.Leave() }
func (p *pump) change(id core.SessionID, d rate.Rate) { p.sessions[id].src.Change(d) }
func (p *pump) rate(id core.SessionID) (rate.Rate, bool) {
	ps := p.sessions[id]
	return ps.granted, ps.has
}

// setCapacity reconfigures a link's task to the capacity capOf now reports.
func (p *pump) setCapacity(id graph.LinkID) {
	if int(id) < len(p.links) && p.links[id] != nil {
		p.links[id].SetCapacity(p.capOf(id))
	}
}

// drain delivers queued packets, oldest first, until the tasks go silent.
func (p *pump) drain() {
	for p.head < len(p.queue) {
		m := p.queue[p.head]
		p.head++
		if p.head > 1<<16 && p.head > len(p.queue)/2 {
			// Drop the delivered prefix so a long cascade does not keep it.
			p.queue = p.queue[:copy(p.queue, p.queue[p.head:])]
			p.head = 0
		}
		ps := p.sessions[m.s]
		switch {
		case m.hop == 0:
			ps.src.Receive(m.pkt)
		case m.hop == len(ps.path)+1:
			ps.dst.Receive(m.pkt, m.hop)
		default:
			p.links[ps.path[m.hop-1]].Receive(m.pkt, m.hop)
		}
	}
	p.queue, p.head = p.queue[:0], 0
}
