package sim

import (
	"time"
)

// Wire models one directed physical link carrying control packets: a FIFO
// transmitter serialized at a fixed per-packet transmission time followed by
// a propagation delay. All control packets of all sessions crossing the same
// directed link share its wire, so hot links serialize control traffic —
// this queueing is what makes time-to-quiescence grow with session count in
// the paper's LAN scenarios.
//
// FIFO order is guaranteed: departures are serialized (monotone departure
// times) and the engine breaks equal-time ties in scheduling order.
type Wire struct {
	eng  Sched
	prop time.Duration
	tx   time.Duration // per-packet transmission (serialization) time
	free Time          // when the transmitter next becomes idle
}

// Sched is the scheduling surface a wire needs: the clock of the sending
// side and absolute-time scheduling of the arrival. *Engine satisfies it
// directly; a transport passes a per-link adapter whose At keys the arrival
// by the sending node (Engine.SendFrom).
type Sched interface {
	Now() Time
	At(t Time, fn func())
}

// NewWire returns a wire on the given scheduler with a propagation delay and
// a per-packet transmission time (0 for an ideal link).
func NewWire(eng Sched, propagation, txPerPacket time.Duration) *Wire {
	w := new(Wire)
	w.Init(eng, propagation, txPerPacket)
	return w
}

// Init makes the zero Wire at w what NewWire returns, for a wire that lives
// inside a larger per-link record. Passing a pointer into that same record
// as eng keeps the wire and its scheduler adapter in one allocation (an
// interface holding a pointer boxes nothing).
func (w *Wire) Init(eng Sched, propagation, txPerPacket time.Duration) {
	w.eng, w.prop, w.tx = eng, propagation, txPerPacket
}

// Send schedules deliver to run after the packet is serialized onto the wire
// and propagates. It returns the arrival time.
func (w *Wire) Send(deliver func()) Time {
	arrival := w.Depart(w.eng.Now())
	w.eng.At(arrival, deliver)
	return arrival
}

// Depart serializes one packet sent at now and returns its arrival time, for
// a transport that schedules the arrival itself.
func (w *Wire) Depart(now Time) Time {
	w.free = max(w.free, now) + w.tx
	return w.free + w.prop
}

// SetTx changes the per-packet transmission time — a capacity
// reconfiguration of the underlying link. Packets already serialized keep
// their departure times (w.free is untouched); only future sends use the new
// rate.
func (w *Wire) SetTx(txPerPacket time.Duration) { w.tx = txPerPacket }
