package core

import (
	"bneck/internal/rate"
)

// RouterLink is the task controlling one directed network link (Figure 2 of
// the paper). One instance exists per link that carries at least one
// session; all packets of sessions whose path crosses the link are processed
// here, atomically (the transport guarantees handlers never run
// concurrently).
//
// A RouterLink must not be copied after Init: its table and its scratch
// buffer hold slices into the task's own storage (see table and noCopy).
// Transports either take one from NewRouterLink or embed one in a larger
// per-link record and call Init on it in place.
type RouterLink struct {
	_   noCopy
	ref LinkRef
	em  Emitter
	// scratch is a reusable buffer for session-set snapshots taken while
	// mutating the table underneath (handlers never run reentrantly, and no
	// snapshot outlives its loop, so one buffer suffices). It starts in
	// scratchBuf, which is all a single-session link ever needs.
	scratch    []*tableEntry
	scratchBuf [1]*tableEntry
	// tbl is embedded by value: the task and its table are one allocation,
	// and a packet reaches the entry index without a pointer hop.
	tbl table
}

// NewRouterLink returns the task for link ref with the given data capacity,
// in an allocation of its own. It and Init are the only ways a usable
// RouterLink comes to be, and neither copies one.
func NewRouterLink(ref LinkRef, capacity rate.Rate, em Emitter) *RouterLink {
	rl := new(RouterLink)
	rl.Init(ref, capacity, em)
	return rl
}

// Init makes the zero RouterLink at rl the task for link ref with the given
// data capacity — NewRouterLink for a task that lives inside another
// allocation. Call it once, before the first packet, and never copy *rl
// afterwards.
func (rl *RouterLink) Init(ref LinkRef, capacity rate.Rate, em Emitter) {
	rl.ref = ref
	rl.em = em
	rl.scratch = rl.scratchBuf[:0]
	rl.tbl.capacity = capacity
}

// Ref returns the link reference this task controls.
func (rl *RouterLink) Ref() LinkRef { return rl.ref }

// Sessions returns how many sessions the link currently knows.
func (rl *RouterLink) Sessions() int { return rl.tbl.sessions() }

// Bottleneck returns the link's current bottleneck rate estimate B_e
// (+∞ when R_e is empty).
func (rl *RouterLink) Bottleneck() rate.Rate { return rl.tbl.be() }

// SetCapacity changes the link's data capacity C_e — the reconfiguration
// primitive behind dynamic topologies. The paper's protocol has no such
// event, but it composes from the machinery it does have: every F_e member
// moves back into R_e (the restricted-elsewhere classification was judged
// against the old capacity and must be re-derived), and every IDLE session is
// told to re-probe, exactly as Figure 2 reacts to a Leave. Probe cycles
// already in flight are caught by the Response consistency check against the
// new B_e. Traffic is bounded by the sessions crossing the link, and the
// network re-quiesces through the protocol's own dynamics — no global reset.
func (rl *RouterLink) SetCapacity(c rate.Rate) {
	t := &rl.tbl
	if c.Equal(t.capacity) {
		return
	}
	t.setCapacity(c)
	for {
		maxR, ok := t.feMax()
		if !ok {
			break
		}
		rl.scratch = t.appendFeSessionsAt(rl.scratch[:0], maxR)
		for _, ent := range rl.scratch {
			t.moveFeToRe(ent)
		}
	}
	rl.scratch = t.appendIdleAll(rl.scratch[:0])
	rl.reprobe(nil)
}

// Capacity returns the link's current data capacity C_e.
func (rl *RouterLink) Capacity() rate.Rate { return rl.tbl.capacity }

// Receive processes one packet arriving for session pkt.Session at this
// link, which sits at hop index hop on that session's path.
func (rl *RouterLink) Receive(pkt Packet, hop int) {
	switch pkt.Type {
	case PktJoin:
		rl.onJoin(pkt, hop)
	case PktProbe:
		rl.onProbe(pkt, hop)
	case PktResponse:
		rl.onResponse(pkt, hop)
	case PktUpdate:
		rl.onUpdate(pkt, hop)
	case PktBottleneck:
		rl.onBottleneck(pkt, hop)
	case PktSetBottleneck:
		rl.onSetBottleneck(pkt, hop)
	case PktLeave:
		rl.onLeave(pkt, hop)
	default:
		panic("core: unknown packet type " + pkt.Type.String())
	}
}

// processNewRestricted is Figure 2's ProcessNewRestricted: F_e members whose
// recorded rate reaches the current bottleneck estimate cannot actually be
// restricted elsewhere at a lower rate, so they move back into R_e; then any
// idle R_e member whose rate exceeds the (possibly lowered) estimate is told
// to re-probe.
func (rl *RouterLink) processNewRestricted() {
	t := &rl.tbl
	for {
		maxR, ok := t.feMax()
		if !ok || maxR.Less(t.be()) {
			break
		}
		rl.scratch = t.appendFeSessionsAt(rl.scratch[:0], maxR)
		for _, ent := range rl.scratch {
			t.moveFeToRe(ent)
		}
	}
	be := t.be()
	rl.scratch = t.appendIdleAbove(rl.scratch[:0], be)
	rl.reprobe(nil)
}

// reprobe tells every session of the snapshot in rl.scratch, except skip, to
// start a new probe cycle: μ becomes WAITING_PROBE and an Update goes
// upstream.
func (rl *RouterLink) reprobe(skip *tableEntry) {
	for _, ent := range rl.scratch {
		if ent == skip {
			continue
		}
		rl.tbl.setState(ent, WaitingProbe)
		rl.em.Emit(ent.id, int(ent.hop), Up, Packet{Type: PktUpdate, Session: ent.id})
	}
}

func (rl *RouterLink) onJoin(pkt Packet, hop int) {
	t := &rl.tbl
	s := pkt.Session
	if t.get(s) != nil {
		// A stale entry can only exist if a rejoin raced ahead of a Leave's
		// cleanup, which the transport's FIFO order precludes; be safe and
		// start from scratch.
		t.remove(s)
	}
	t.addNew(s, hop)
	rl.processNewRestricted()
	lambda, eta := pkt.Rate, pkt.Bneck
	if be := t.be(); lambda.Greater(be) {
		lambda, eta = be, rl.ref
	}
	rl.em.Emit(s, hop, Down, Packet{Type: PktJoin, Session: s, Rate: lambda, Bneck: eta})
}

func (rl *RouterLink) onProbe(pkt Packet, hop int) {
	t := &rl.tbl
	s := pkt.Session
	ent := t.get(s)
	if ent == nil {
		return // session left; drop
	}
	t.setState(ent, WaitingResponse)
	if !ent.inRe {
		t.moveFeToRe(ent)
		rl.processNewRestricted()
	}
	lambda, eta := pkt.Rate, pkt.Bneck
	if be := t.be(); lambda.Greater(be) {
		lambda, eta = be, rl.ref
	}
	rl.em.Emit(s, hop, Down, Packet{Type: PktProbe, Session: s, Rate: lambda, Bneck: eta})
}

func (rl *RouterLink) onResponse(pkt Packet, hop int) {
	t := &rl.tbl
	s := pkt.Session
	ent := t.get(s)
	if ent == nil {
		return // session left; drop
	}
	tau, lambda, eta := pkt.Resp, pkt.Rate, pkt.Bneck
	if tau == RespUpdate {
		t.setState(ent, WaitingProbe)
	} else {
		be := t.be()
		if (eta == rl.ref && lambda.Equal(be)) || (eta != rl.ref && lambda.LessEq(be)) {
			// The probe's answer is consistent with this link's current
			// estimate: accept it.
			t.setIdle(ent, lambda)
		} else {
			// Either this link capped the probe but its estimate has moved
			// (η = e ∧ λ < B_e), or the granted rate now exceeds this link's
			// share (λ > B_e): a new probe cycle is needed.
			tau = RespUpdate
			t.setState(ent, WaitingProbe)
		}
		if t.allReIdleAtBe() {
			// Every session not restricted elsewhere is idle at B_e: this
			// link is a bottleneck. Tell s through τ and everyone else with
			// Bottleneck packets.
			tau = RespBottleneck
			eta = rl.ref
			rl.scratch = t.appendIdleAt(rl.scratch[:0], be)
			for _, r := range rl.scratch {
				if r == ent {
					continue
				}
				rl.em.Emit(r.id, int(r.hop), Up, Packet{Type: PktBottleneck, Session: r.id})
			}
		}
	}
	rl.em.Emit(s, hop, Up, Packet{Type: PktResponse, Session: s, Resp: tau, Rate: lambda, Bneck: eta})
}

func (rl *RouterLink) onUpdate(pkt Packet, hop int) {
	t := &rl.tbl
	s := pkt.Session
	ent := t.get(s)
	if ent == nil {
		return
	}
	if ent.mu == Idle {
		t.setState(ent, WaitingProbe)
		rl.em.Emit(s, hop, Up, Packet{Type: PktUpdate, Session: s})
	}
	// Non-idle: a probe cycle is already pending or in flight; the Update is
	// absorbed here (the Response check or the pending Probe covers it).
}

func (rl *RouterLink) onBottleneck(pkt Packet, hop int) {
	s := pkt.Session
	ent := rl.tbl.get(s)
	if ent == nil {
		return
	}
	if ent.mu == Idle && ent.inRe {
		rl.em.Emit(s, hop, Up, Packet{Type: PktBottleneck, Session: s})
	}
}

func (rl *RouterLink) onSetBottleneck(pkt Packet, hop int) {
	t := &rl.tbl
	s := pkt.Session
	ent := t.get(s)
	if ent == nil {
		return
	}
	be := t.be()
	switch {
	case t.allReIdleAtBe():
		// This link is a bottleneck (for s among others): confirm it.
		rl.em.Emit(s, hop, Down, Packet{Type: PktSetBottleneck, Session: s, Beta: true})
	case ent.mu == Idle && ent.hasLambda && ent.lambda.Less(be):
		// s is restricted elsewhere: move it to F_e. Idle sessions pinned at
		// the old estimate can now get more, so they must re-probe.
		rl.scratch = t.appendIdleAt(rl.scratch[:0], be)
		rl.reprobe(nil)
		if ent.inRe {
			t.moveReToFe(ent)
		}
		rl.em.Emit(s, hop, Down, Packet{Type: PktSetBottleneck, Session: s, Beta: pkt.Beta})
	case ent.mu == Idle && ent.hasLambda && ent.lambda.Equal(be):
		// This link restricts s but is not (yet) a confirmed bottleneck:
		// pass β through unchanged.
		rl.em.Emit(s, hop, Down, Packet{Type: PktSetBottleneck, Session: s, Beta: pkt.Beta})
	default:
		// μ ≠ IDLE: an Update overtook the SetBottleneck; the pending probe
		// cycle supersedes it. Drop.
	}
}

func (rl *RouterLink) onLeave(pkt Packet, hop int) {
	t := &rl.tbl
	s := pkt.Session
	if ent := t.get(s); ent != nil {
		// R′ with the *old* B_e: sessions pinned at the current estimate can
		// grow once s's share is freed.
		rl.scratch = rl.scratch[:0]
		if t.reCount > 0 {
			rl.scratch = t.appendIdleAt(rl.scratch, t.be())
		}
		t.remove(s)
		rl.reprobe(ent)
	}
	rl.em.Emit(s, hop, Down, Packet{Type: PktLeave, Session: s})
}

// Stable reports whether the link satisfies Definition 2 of the paper: all
// known sessions IDLE, all R_e members at B_e, and (when R_e is nonempty)
// every F_e member strictly below B_e.
func (rl *RouterLink) Stable() bool {
	t := &rl.tbl
	for _, slot := range t.entries.slots {
		if slot.ent != nil && slot.ent.mu != Idle {
			return false
		}
	}
	if t.reCount > 0 {
		be := t.be()
		if t.idleRates.countAt(be) != t.reCount {
			return false
		}
		if max, ok := t.feMax(); ok && !max.Less(be) {
			return false
		}
	}
	return true
}

// snapshotEntry is a read-only view of per-session link state for tests and
// validation.
type snapshotEntry struct {
	InRe   bool
	Mu     State
	Lambda rate.Rate
	HasLam bool
}

// snapshot exposes the table state (tests only).
func (rl *RouterLink) snapshot() map[SessionID]snapshotEntry {
	out := make(map[SessionID]snapshotEntry, rl.tbl.sessions())
	for _, slot := range rl.tbl.entries.slots {
		if e := slot.ent; e != nil {
			out[slot.id] = snapshotEntry{InRe: e.inRe, Mu: e.mu, Lambda: e.lambda, HasLam: e.hasLambda}
		}
	}
	return out
}

// CheckInvariants exposes table consistency checking for tests.
func (rl *RouterLink) CheckInvariants() error { return rl.tbl.checkInvariants() }
