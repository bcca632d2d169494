package live

import (
	"sync"
	"sync/atomic"
)

// mailboxKeep is the longest drained mailbox buffer (in messages, ≈ 26 KB)
// an actor keeps for reuse. A steady actor alternates between two buffers of
// at most this length for its whole life; a burst that grew one past it — a
// join storm through a core link — costs that one buffer to the collector
// instead of pinning the burst's high-water mark on every link actor until
// Close.
const mailboxKeep = 256

// actor is a goroutine with an unbounded FIFO mailbox. Handlers run
// sequentially, giving the per-task atomicity the protocol's when-blocks
// require.
//
// The loop takes the whole mailbox in one critical section and hands its
// previous, emptied buffer back, so a burst of k messages costs the consumer
// one lock round trip instead of k, and producers append into a buffer that
// is reused instead of re-sliced away.
type actor struct {
	mu    sync.Mutex //bneck:lock mailbox
	cond  *sync.Cond
	queue []message // producers append under mu
	// batch is the buffer the loop is working through, or has just worked
	// through. Only the loop goroutine touches it, and its last write of a
	// round precedes that round's counter decrement, so a reader that has
	// seen the counter reach zero (the bounded-growth test) reads it safely.
	batch []message
	// stopped is written under mu and read by enqueue under mu; the loop
	// also polls it between the messages of a batch, lock-free, so a stop
	// takes effect mid-batch.
	stopped atomic.Bool
	acts    *activityCounter
}

func newActor(acts *activityCounter) *actor {
	a := &actor{acts: acts}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// start launches the actor loop. handle is invoked once per message, in
// FIFO order, never concurrently; the pointer is valid only for the call.
func (a *actor) start(handle func(*message)) {
	go func() {
		for {
			a.mu.Lock()
			for len(a.queue) == 0 && !a.stopped.Load() {
				a.cond.Wait()
			}
			if a.stopped.Load() {
				a.mu.Unlock()
				return
			}
			a.batch, a.queue = a.queue, a.batch[:0]
			a.mu.Unlock()

			n := len(a.batch)
			for i := 0; i < n && !a.stopped.Load(); i++ {
				handle(&a.batch[i])
			}
			if cap(a.batch) > mailboxKeep {
				a.batch = nil
			} else {
				clear(a.batch) // a kept buffer must not pin dead incarnations
			}
			// One decrement for the whole batch, after its last handler:
			// everything the handlers emitted has already been counted, so
			// the counter cannot reach zero mid-cascade. A stop that cut the
			// batch short un-counts the unhandled remainder here too, exactly
			// as stop itself un-counts what was still queued.
			a.acts.add(-int64(n))
		}
	}()
}

// enqueue appends a message (counts as activity until processed). It never
// blocks — the queue is unbounded — which is why enqueueing under rt.mu or a
// stripe is legal (lock order mu → stripe → mailbox). The loop sleeps only
// on an empty mailbox, so only the enqueue that makes it non-empty signals.
//
//bneck:locks mailbox
func (a *actor) enqueue(m message) {
	a.acts.add(1)
	a.mu.Lock()
	if a.stopped.Load() {
		a.mu.Unlock()
		a.acts.add(-1)
		return
	}
	wake := len(a.queue) == 0
	a.queue = append(a.queue, m)
	a.mu.Unlock()
	if wake {
		a.cond.Signal()
	}
}

// stop terminates the actor loop; queued messages are dropped (and
// un-counted) so Close never hangs the activity counter. The loop drops and
// un-counts the rest of a batch it is in the middle of.
//
//bneck:locks mailbox
func (a *actor) stop() {
	a.mu.Lock()
	dropped := len(a.queue)
	a.queue = nil
	a.stopped.Store(true)
	a.mu.Unlock()
	a.cond.Broadcast()
	a.acts.add(-int64(dropped))
}

// activityCounter is a reusable quiescence detector: add(+1) when a message
// is enqueued, add(−n) when n messages are fully processed or dropped; wait
// blocks while the count is non-zero.
//
// The count is one atomic; the mutex and condition variable exist only for
// the hand-off to waiters. The add that brings the count to zero broadcasts
// while holding mu, and wait re-checks the count while holding mu: a waiter
// that read a non-zero count is on the condition's wait list before it
// releases mu, so the zero-crossing add — which comes later in the atomic's
// order and must take mu to broadcast — cannot slip between the waiter's
// check and its sleep.
type activityCounter struct {
	n    atomic.Int64
	mu   sync.Mutex
	cond *sync.Cond
}

func newActivityCounter() *activityCounter {
	c := &activityCounter{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *activityCounter) add(d int64) {
	n := c.n.Add(d)
	if n < 0 {
		panic("live: activity counter underflow")
	}
	if n == 0 && d < 0 {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

// wait returns once it has read a zero count. Every add is a
// read-modify-write of the same atomic, so the add that wrote the zero is
// ordered after every add before it, and the load that reads the zero after
// that one: whatever a handler wrote before its decrement is visible to the
// caller (Validate relies on it).
func (c *activityCounter) wait() {
	c.mu.Lock()
	for c.n.Load() != 0 {
		c.cond.Wait()
	}
	c.mu.Unlock()
}
