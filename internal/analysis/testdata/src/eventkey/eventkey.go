// Package eventkey models the engine's creator-keyed event heap and the
// transport's scheduling surface. The flagged shapes reproduce the PR 4
// stale-incarnation rejoin bug: a rejoin scheduled through the engine's
// un-keyed At side door instead of the transport's global funnel, outside the
// one order all churn shares.
package eventkey

type event struct {
	at  int64
	src int32
	seq uint64
	fn  func()
}

type eventQueue struct{ ev []event }

func (q *eventQueue) push(e event) { q.ev = append(q.ev, e) }

// Engine models the classic serial engine: every event enters its heap
// through a keyed constructor.
type Engine struct {
	events eventQueue
	seq    uint64
	ctr    []uint64
}

// At schedules an external event with the shared ExtCreator sequence.
//
//bneck:keyed assigns the ExtCreator key.
func (e *Engine) At(t int64, fn func()) {
	e.seq++
	e.events.push(event{at: t, src: -1, seq: e.seq, fn: fn})
}

// SendFrom assigns the (time, creator, creator-seq) key.
//
//bneck:keyed
func (e *Engine) SendFrom(creator int32, t int64, fn func()) {
	e.ctr[creator]++
	e.events.push(event{at: t, src: creator, seq: e.ctr[creator], fn: fn})
}

// forgePush fabricates an event outside the keyed constructors, so it
// carries no total-order key at all.
func (e *Engine) forgePush(t int64, fn func()) {
	e.events.push(event{at: t, fn: fn}) // want "direct event-heap push"
}

// transport models the network layer driving the engine.
type transport struct {
	eng *Engine
}

// globalAt is the transport's one blessed funnel for un-keyed scheduling.
//
//bneck:global the single ExtCreator funnel; all serial events flow through here.
func (n *transport) globalAt(t int64, fn func()) {
	n.eng.At(t, fn) //bneck:global see funnel above.
}

// rejoinStale is the PR 4 bug shape: the stale incarnation's rejoin
// scheduled directly on the engine, bypassing the funnel.
func (n *transport) rejoinStale(t int64, fn func()) {
	n.eng.At(t, fn) // want "un-keyed \\(ExtCreator\\) event"
}

// rejoinFixed routes the rejoin through the funnel, sharing the one order
// all churn shares.
func (n *transport) rejoinFixed(t int64, fn func()) {
	n.globalAt(t, fn)
}

// sendKeyed uses the keyed constructor for cross-node traffic: always legal.
func (n *transport) sendKeyed(creator int32, t int64, fn func()) {
	n.eng.SendFrom(creator, t, fn)
}

// removeAt models an in-place removal from the queue: the event at slot k
// leaves and the tail fills its slot. Removal never pushes — events leave
// the heap with the key they entered with — so it needs no annotation and
// stays clean.
func (e *Engine) removeAt(k int) event {
	ev := e.events.ev[k]
	e.events.ev[k] = e.events.ev[len(e.events.ev)-1]
	e.events.ev = e.events.ev[:len(e.events.ev)-1]
	return ev
}

// refill models the radix queue's refill: it moves queued events from one
// bucket into another by append, never by push — they keep the keys they
// entered with — so it needs no annotation and stays clean.
func (q *eventQueue) refill(from, to *[]event) {
	*to = append(*to, *from...)
	*from = (*from)[:0]
}

// refillViaPush re-files a bucket through push: the analyzer cannot tell a
// moved event from a forged one, so it is flagged like any bypass.
func (q *eventQueue) refillViaPush(from *[]event) {
	for _, ev := range *from {
		q.push(ev) // want "direct event-heap push"
	}
	*from = (*from)[:0]
}

// removeViaRepush is the tempting-but-wrong removal: popping the slot and
// re-inserting the displaced tail through push. The analyzer cannot tell a
// re-homed event from a forged one, and the blessed removal (removeAt)
// never needs a push — so an unannotated re-push is flagged like any bypass.
func (e *Engine) removeViaRepush(k int) event {
	ev := e.events.ev[k]
	last := e.events.ev[len(e.events.ev)-1]
	e.events.ev = e.events.ev[:len(e.events.ev)-2]
	e.events.push(last) // want "direct event-heap push"
	return ev
}
