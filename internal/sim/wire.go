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
// times) and the engine breaks equal-time ties in scheduling order. A hold
// (Depart) keeps the transmitter busy for that much longer before the
// packet goes out, so it delays the packets queued behind it too and never
// reorders them: a FIFO channel with an arbitrary finite delay, the paper's
// channel model.
type Wire struct {
	eng  Sched
	prop time.Duration
	tx   time.Duration // per-packet transmission (serialization) time
	free Time          // when the transmitter next becomes idle
}

// Sched is the scheduling surface Send needs: the clock of the sending side
// and absolute-time scheduling of the arrival. *Engine satisfies it
// directly. Sched, NewWire and Send stay because the repository's benchmark
// replays packets through them; the simulated transport calls Depart and
// keys each arrival itself.
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
// inside a larger per-link record. A transport that only calls Depart
// passes a nil eng.
func (w *Wire) Init(eng Sched, propagation, txPerPacket time.Duration) {
	w.eng, w.prop, w.tx = eng, propagation, txPerPacket
}

// Send schedules deliver to run after the packet is serialized onto the wire
// and propagates. It returns the arrival time.
func (w *Wire) Send(deliver func()) Time {
	arrival := w.Depart(w.eng.Now(), 0)
	w.eng.At(arrival, deliver)
	return arrival
}

// Depart serializes one packet sent at now after holding the transmitter
// for hold, and returns its arrival time, for a transport that schedules the
// arrival itself (and passes a nil Sched).
func (w *Wire) Depart(now, hold Time) Time {
	w.free = max(w.free, now) + hold + w.tx
	return w.free + w.prop
}

// SetTx changes the per-packet transmission time — a capacity
// reconfiguration of the underlying link. Packets already serialized keep
// their departure times (w.free is untouched); only future sends use the new
// rate.
func (w *Wire) SetTx(txPerPacket time.Duration) { w.tx = txPerPacket }
