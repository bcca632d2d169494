package core

import (
	"fmt"

	"bneck/internal/rate"
)

// SourceNode is the task running at a session's source host (Figure 3 of the
// paper). It drives probe cycles, receives the session's rate, and
// propagates the API primitives (Join, Leave, Change) into the network.
//
// Unlike the figure, the source carries only the session's demand r rather
// than Ds = min(r, C_e): the access link runs its own RouterLink here, which
// is equivalent (see the package documentation).
type SourceNode struct {
	id     SessionID
	em     Emitter
	rateCb RateCallback

	demand   rate.Rate // the session's requested maximum rate (may be +∞)
	mu       State
	lambda   rate.Rate // last granted rate (valid once hasLambda)
	hasLam   bool
	updRcv   bool // an Update arrived mid-cycle; re-probe when it closes
	bneckRcv bool // the current rate has been confirmed as max-min fair
	inFe     bool // source-local F_e bookkeeping for the access link
	active   bool
}

// NewSourceNode returns a source task for session id. rateCb receives
// API.Rate upcalls and may be nil.
func NewSourceNode(id SessionID, em Emitter, rateCb RateCallback) *SourceNode {
	return &SourceNode{id: id, em: em, rateCb: rateCb, mu: Idle}
}

// ID returns the session this source drives.
func (sn *SourceNode) ID() SessionID { return sn.id }

// Active reports whether the session has joined and not left.
func (sn *SourceNode) Active() bool { return sn.active }

// Demand returns the session's current requested maximum rate.
func (sn *SourceNode) Demand() rate.Rate { return sn.demand }

// Rate returns the last granted rate and whether one has been received.
func (sn *SourceNode) Rate() (rate.Rate, bool) { return sn.lambda, sn.hasLam }

// Converged reports whether the session currently holds a rate that the
// network confirmed as its max-min fair rate (the bneck_rcv flag).
func (sn *SourceNode) Converged() bool { return sn.bneckRcv && sn.mu == Idle }

// AppendState appends the task's canonical state to b and returns it (see
// RouterLink.AppendState).
func (sn *SourceNode) AppendState(b []byte) []byte {
	b = fmt.Appendf(b, "S%d d%s m%d a%t u%t b%t f%t", sn.id, sn.demand.Key(), sn.mu, sn.active, sn.updRcv, sn.bneckRcv, sn.inFe)
	if sn.hasLam {
		b = append(append(b, '='), sn.lambda.Key()...)
	}
	return append(b, ';')
}

// Join implements API.Join(s, r): the session enters the system requesting a
// maximum rate of demand.
func (sn *SourceNode) Join(demand rate.Rate) {
	if sn.active {
		panic(fmt.Sprintf("core: Join on active session %d", sn.id))
	}
	sn.active = true
	sn.inFe = false
	sn.demand = demand
	sn.mu = WaitingResponse
	sn.updRcv = false
	sn.bneckRcv = false
	sn.hasLam = false
	sn.em.Emit(sn.id, 0, Down, Packet{Type: PktJoin, Session: sn.id, Rate: demand, Bneck: SourceRef})
}

// Leave implements API.Leave(s).
func (sn *SourceNode) Leave() {
	if !sn.active {
		panic(fmt.Sprintf("core: Leave on inactive session %d", sn.id))
	}
	sn.active = false
	sn.inFe = false
	sn.mu = Idle
	sn.hasLam = false
	sn.bneckRcv = false
	sn.updRcv = false
	sn.em.Emit(sn.id, 0, Down, Packet{Type: PktLeave, Session: sn.id})
}

// Change implements API.Change(s, r): the session requests a new maximum
// rate.
func (sn *SourceNode) Change(demand rate.Rate) {
	if !sn.active {
		panic(fmt.Sprintf("core: Change on inactive session %d", sn.id))
	}
	sn.demand = demand
	if sn.mu == Idle {
		sn.inFe = false
		sn.updRcv = false
		sn.bneckRcv = false
		sn.startProbe()
	} else {
		sn.updRcv = true
	}
}

// Receive processes a packet arriving at the source (hop 0).
func (sn *SourceNode) Receive(pkt Packet) {
	if !sn.active {
		return // stragglers after Leave
	}
	switch pkt.Type {
	case PktUpdate:
		sn.onUpdate()
	case PktBottleneck:
		sn.onBottleneck()
	case PktResponse:
		sn.onResponse(pkt)
	default:
		panic(fmt.Sprintf("core: source received %v", pkt))
	}
}

func (sn *SourceNode) startProbe() {
	sn.mu = WaitingResponse
	sn.em.Emit(sn.id, 0, Down, Packet{Type: PktProbe, Session: sn.id, Rate: sn.demand, Bneck: SourceRef})
}

func (sn *SourceNode) onUpdate() {
	if sn.mu == Idle {
		sn.inFe = false
		sn.bneckRcv = false
		sn.startProbe()
	} else {
		sn.updRcv = true
	}
}

func (sn *SourceNode) onBottleneck() {
	if sn.mu == Idle && !sn.bneckRcv {
		sn.bneckRcv = true
		sn.notifyRate()
		beta := sn.demand.Equal(sn.lambda)
		if sn.demand.Greater(sn.lambda) {
			sn.inFe = true
		}
		sn.em.Emit(sn.id, 0, Down, Packet{Type: PktSetBottleneck, Session: sn.id, Beta: beta})
	}
}

func (sn *SourceNode) onResponse(pkt Packet) {
	switch {
	case pkt.Resp == RespUpdate || sn.updRcv:
		sn.updRcv = false
		sn.bneckRcv = false
		sn.startProbe()
	case pkt.Resp == RespBottleneck:
		sn.lambda = pkt.Rate
		sn.hasLam = true
		sn.mu = Idle
		sn.bneckRcv = true
		sn.notifyRate()
		beta := sn.demand.Equal(sn.lambda)
		if sn.demand.Greater(sn.lambda) {
			sn.inFe = true
		}
		sn.em.Emit(sn.id, 0, Down, Packet{Type: PktSetBottleneck, Session: sn.id, Beta: beta})
	default: // τ = RESPONSE
		sn.lambda = pkt.Rate
		sn.hasLam = true
		sn.mu = Idle
		if sn.demand.Equal(sn.lambda) {
			// The session got its full demand: it is restricted by itself,
			// no network bottleneck is needed.
			sn.bneckRcv = true
			sn.notifyRate()
			sn.em.Emit(sn.id, 0, Down, Packet{Type: PktSetBottleneck, Session: sn.id, Beta: true})
		}
		// Otherwise stay idle and wait for a Bottleneck packet.
	}
}

func (sn *SourceNode) notifyRate() {
	if sn.rateCb != nil {
		sn.rateCb(sn.id, sn.lambda)
	}
}
