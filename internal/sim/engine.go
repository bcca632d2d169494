// Package sim is a deterministic discrete event simulator, the substitute
// for the modified Peersim substrate the paper evaluates on. It provides a
// virtual clock, an event queue with stable FIFO tie-breaking, and a FIFO
// link (wire) model with transmission serialization and propagation delay.
//
// The event queue is a radix heap over virtual time whose buckets hold
// 24-byte event values, the time and one packed (creator, sequence) key, so
// scheduling performs no per-event allocation and one unsigned compare
// orders two events of the same instant; the sequence is the engine's count
// of schedulings. Equal-time events fire in key order (deterministic runs).
package sim

import (
	"fmt"
	"time"
)

// Time is virtual simulation time measured from the start of the run.
type Time = time.Duration

// ExtCreator is the creator ID of events scheduled from outside any node
// context (At/After/DaemonAt: setup code, churn, dynamics, sampling). It
// sorts before every node, so an external event at time t always precedes
// node events at t.
const ExtCreator int32 = -1

// Engine is a single-threaded discrete event scheduler. Events scheduled for
// the same instant run in key order — (time, creator, engine sequence) —
// which makes runs deterministic. Events scheduled without a creator
// (At/After/DaemonAt) are all keyed under ExtCreator and fire in scheduling
// order among themselves, the engine's historical contract.
//
// Events come in two flavors: regular events keep Run alive, daemon events
// (periodic measurement ticks and the like) do not — Run returns when only
// daemon events remain, which is exactly the paper's quiescence instant for
// a workload with finitely many session events.
type Engine struct {
	now      Time
	events   eventQueue
	seq      uint64 // schedulings so far, every creator's: the keys' sequence
	regular  int    // number of non-daemon events in the queue
	stopped  bool   // Stop was called; Run unwinds
	nEvents  uint64
	lastBusy Time // time of the most recently executed regular event
}

// New returns an engine with the clock at 0.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Events returns the total number of events executed.
func (e *Engine) Events() uint64 { return e.nEvents }

// At schedules fn to run at the given absolute virtual time, which must not
// be in the past.
func (e *Engine) At(t Time, fn func()) {
	e.schedule(t, fn, false)
}

// After schedules fn to run d from now (d < 0 is clamped to now).
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+d, fn, false)
}

// DaemonAt schedules a daemon event: it runs like a regular event, but does
// not keep Run alive.
func (e *Engine) DaemonAt(t Time, fn func()) {
	e.schedule(t, fn, true)
}

// schedule assigns the ExtCreator key: external events order by the
// engine-wide sequence.
//
//bneck:keyed
func (e *Engine) schedule(t Time, fn func(), daemon bool) {
	e.checkTime(t)
	e.seq++
	e.events.push(event{at: t, key: eventKey(ExtCreator, e.seq, daemon), fn: fn})
	if !daemon {
		e.regular++
	}
}

// SendFrom schedules fn at absolute time t with an explicit creator: the
// node whose execution performs the scheduling. Same-time events of
// different creators run in creator order, and one creator's events in the
// order it scheduled them, so the total order of a run depends only on what
// each node did — never on how the queue happened to be laid out (the
// engine-wide sequence only grows, so it orders each creator's events). A
// creator is a node ID in [0, 2²⁴−1); anything else panics, as does the
// engine's 2³⁹th scheduling.
//
//bneck:keyed assigns the (time, creator, seq) key.
func (e *Engine) SendFrom(creator int32, t Time, fn func()) {
	e.checkTime(t)
	if creator < 0 || creator >= maxCreator {
		panic(fmt.Sprintf("sim: creator %d out of range [0, %d)", creator, maxCreator))
	}
	e.seq++
	e.events.push(event{at: t, key: eventKey(creator, e.seq, false), fn: fn})
	e.regular++
}

// SendFromTo is SendFrom: the second argument once stamped the receiving
// node (the event's owner) on the event, and nothing read it. It stays
// because the repository's benchmark probes call it.
func (e *Engine) SendFromTo(creator, _ int32, t Time, fn func()) { e.SendFrom(creator, t, fn) }

func (e *Engine) checkTime(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", t, e.now))
	}
}

// Step executes the next event. It returns false when no events remain.
func (e *Engine) Step() bool {
	if e.events.len() == 0 {
		return false
	}
	ev := e.events.pop()
	e.now = ev.at
	if ev.key&1 == 0 {
		e.regular--
		e.lastBusy = ev.at
	}
	e.nEvents++
	ev.fn()
	return true
}

// Run executes events until no regular events remain (daemon events that are
// already due before the last regular event still run in order). It returns
// the quiescence time: the timestamp of the last regular event executed.
// A preceding Stop is cleared on entry, so Run can resume a stopped engine.
func (e *Engine) Run() Time {
	e.stopped = false
	for e.regular > 0 && !e.stopped {
		if !e.Step() {
			break
		}
	}
	return e.lastBusy
}

// RunUntil executes all events (regular and daemon) scheduled strictly
// before or at t, then sets the clock to t unless a Stop ended it early.
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	for e.events.len() > 0 && e.events.minTime() <= t && !e.stopped {
		e.Step()
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// Stop makes the innermost Run/RunUntil return after the current event.
func (e *Engine) Stop() { e.stopped = true }

// Pending returns the number of regular (non-daemon) events in the queue.
func (e *Engine) Pending() int { return e.regular }
