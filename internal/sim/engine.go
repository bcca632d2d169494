// Package sim is a deterministic discrete event simulator, the substitute
// for the modified Peersim substrate the paper evaluates on. It provides a
// virtual clock, an event queue with stable FIFO tie-breaking, and a FIFO
// link (wire) model with transmission serialization and propagation delay.
//
// The event queue is an inlined value-typed 4-ary min-heap ordered by
// (time, sequence number): events are stored as struct values in one
// contiguous slice, so scheduling performs no per-event heap allocation and
// no interface boxing (unlike container/heap). A 4-ary layout halves the
// tree depth of a binary heap, trading a few extra comparisons per level
// for better cache locality on the sift path; push and pop are O(log₄ n).
// Equal-time events fire in scheduling order, which makes runs
// deterministic.
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
// the same instant run in key order — (time, creator, creator sequence) —
// which makes runs deterministic. Events scheduled without a creator
// (At/After/DaemonAt) share the ExtCreator bucket and fire in scheduling
// order among themselves, the engine's historical contract.
//
// Events come in two flavors: regular events keep Run alive, daemon events
// (periodic measurement ticks and the like) do not — Run returns when only
// daemon events remain, which is exactly the paper's quiescence instant for
// a workload with finitely many session events.
type Engine struct {
	now      Time
	events   eventQueue
	seq      uint64
	ctr      []uint64 // per-creator sequence counters for SendFrom
	regular  int      // number of non-daemon events in the heap
	stopped  bool     // Stop was called; Run unwinds
	nEvents  uint64
	lastBusy Time // time of the most recently executed regular event

	// Schedule-exploration hook (internal/mc): nil in production, so the
	// Step hot path pays one predictable branch and nothing else.
	chooser Chooser
	candBuf []Choice
	candIdx []int
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

// schedule assigns the ExtCreator key: external events order by a single
// engine-wide sequence.
//
//bneck:keyed
func (e *Engine) schedule(t Time, fn func(), daemon bool) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", t, e.now))
	}
	e.seq++
	e.events.push(event{at: t, src: ExtCreator, seq: e.seq, fn: fn, owner: ExtCreator, daemon: daemon})
	if !daemon {
		e.regular++
	}
}

// SendFrom schedules fn at absolute time t with an explicit creator: the
// node whose execution performs the scheduling. Same-time events of
// different creators run in creator order, and one creator's events in the
// order it scheduled them, so the total order of a run depends only on what
// each node did — never on how the heap happened to be laid out.
// SendFrom is SendFromTo with the creator as the owner.
func (e *Engine) SendFrom(creator int32, t Time, fn func()) { e.SendFromTo(creator, creator, t, fn) }

// SendFromTo schedules fn at absolute time t with an explicit creator and an
// explicit owner: the node whose execution performs the scheduling and the
// node the callback executes on. The event key — and therefore the default
// total order — depends only on (t, creator, creator-seq); the owner rides
// along for the schedule explorer's independence relation (events whose
// owners are disjoint commute).
//
//bneck:keyed assigns the (time, creator, creator-seq) key.
func (e *Engine) SendFromTo(creator, owner int32, t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", t, e.now))
	}
	if n := int(creator) + 1; n > len(e.ctr) {
		e.ctr = append(e.ctr, make([]uint64, n-len(e.ctr))...)
	}
	e.ctr[creator]++
	e.events.push(event{at: t, src: creator, seq: e.ctr[creator], fn: fn, owner: owner})
	e.regular++
}

// Step executes the next event. It returns false when no events remain.
// With a Chooser installed (SetChooser), the event is picked from the
// enabled set at the frontier time instead of popped in key order.
func (e *Engine) Step() bool {
	if e.events.len() == 0 {
		return false
	}
	var ev event
	if e.chooser == nil {
		ev = e.events.pop()
	} else {
		ev = e.popChosen()
	}
	e.now = ev.at
	if !ev.daemon {
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
// before or at t, then sets the clock to t.
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	for e.events.len() > 0 && e.events.minTime() <= t && !e.stopped {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// Stop makes the innermost Run/RunUntil return after the current event.
func (e *Engine) Stop() { e.stopped = true }

// Pending returns the number of regular (non-daemon) events in the heap.
func (e *Engine) Pending() int { return e.regular }

// event is one scheduled callback. Events are stored by value inside the
// queue's backing slice; nothing outside the queue holds a reference.
//
// Events are keyed by (time, creator, per-creator sequence): src is the node
// whose execution scheduled the event — ExtCreator for At/After/DaemonAt,
// which therefore sort before all node creators at the same instant and keep
// their historical scheduling order among themselves — and seq counts that
// creator's schedulings (SendFrom/SendFromTo). owner is the node the event
// executes on, so the schedule explorer can decide which events commute
// (SendFromTo stamps it; SendFrom defaults it to the creator).
type event struct {
	at     Time
	seq    uint64
	fn     func()
	src    int32
	owner  int32
	daemon bool
}

// before is the queue ordering: earlier time first, then creator, then the
// creator's scheduling order. Keys are unique: a creator never reuses a
// sequence number.
func (ev event) before(other event) bool {
	if ev.at != other.at {
		return ev.at < other.at
	}
	if ev.src != other.src {
		return ev.src < other.src
	}
	return ev.seq < other.seq
}

// eventQueue is a 4-ary min-heap of event values: children of slot i live at
// 4i+1..4i+4, the parent of slot i at (i-1)/4. The minimum is at slot 0.
type eventQueue struct {
	ev []event
}

func (q *eventQueue) len() int { return len(q.ev) }

// minTime returns the timestamp of the earliest event. The queue must be
// non-empty.
func (q *eventQueue) minTime() Time { return q.ev[0].at }

func (q *eventQueue) push(ev event) {
	q.ev = append(q.ev, ev)
	// Sift up: move the hole from the tail toward the root until the parent
	// is no later than ev.
	i := len(q.ev) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !ev.before(q.ev[p]) {
			break
		}
		q.ev[i] = q.ev[p]
		i = p
	}
	q.ev[i] = ev
}

// pop removes and returns the minimum event.
func (q *eventQueue) pop() event { return q.removeAt(0) }

// removeAt deletes and returns the event at heap slot i, restoring the heap
// by moving the tail element into the hole and sifting it in whichever
// direction it violates the ordering. Removing a non-minimum element is what
// lets the chooser run an enabled event that is not the global key minimum.
func (q *eventQueue) removeAt(i int) event {
	out := q.ev[i]
	n := len(q.ev) - 1
	last := q.ev[n]
	q.ev[n] = event{} // release the closure reference
	q.ev = q.ev[:n]
	if i == n {
		return out
	}
	// Sift down from i.
	j := i
	for {
		first := 4*j + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if q.ev[c].before(q.ev[min]) {
				min = c
			}
		}
		if !q.ev[min].before(last) {
			break
		}
		q.ev[j] = q.ev[min]
		j = min
	}
	if j == i {
		// Did not move down; sift up instead.
		for j > 0 {
			p := (j - 1) / 4
			if !last.before(q.ev[p]) {
				break
			}
			q.ev[j] = q.ev[p]
			j = p
		}
	}
	q.ev[j] = last
	return out
}
