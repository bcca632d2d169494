package live

import (
	"runtime"
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

// sliceTurns is how many actors a worker drains (≈ 0.8 ms of work) between
// two yields to Go's scheduler. A cascade never blocks, so without the yield
// cascades in excess of the CPUs run one after the other, and B-Neck spends
// many times the packets on joins it sees in sequence instead of together:
// 256 joins on one CPU take 155 ms against 23 (docs/PR21_LIVE_INLINE.md has
// the table; smaller slices cost live_churn 4 % at 2048, 7 % at 1024).
const sliceTurns = 4096

// actor is an unbounded FIFO mailbox and the handler of the task it serves;
// it owns no goroutine. The enqueue that finds it idle claims it (running)
// for a worker to drain, and the drain lets go only on finding the mailbox
// empty, both decided under mu. So one goroutine at a time runs handle — the
// per-task atomicity the protocol's when-blocks require — no message is left
// unclaimed, and successive claim holders are ordered by mu, which lets the
// task's state, batch and w go unsynchronized.
//
// A drain takes the whole mailbox in one critical section and hands its
// emptied buffer back: a burst of k messages costs the consumer one lock
// round trip, and producers append into a buffer that is reused.
type actor struct {
	mu      sync.Mutex //bneck:lock mailbox
	queue   []message  // producers append under mu
	running bool       // the claim; guarded by mu
	// batch is the buffer the drain is working through, or has just worked
	// through. Only the claim holder touches it, and its last write of a
	// round precedes that round's counter decrement, so a reader that has
	// seen the counter reach zero (the bounded-growth test) reads it safely.
	batch []message
	// w is the draining worker, stamped by drain for the task's emitter.
	w *worker
	// stopped is written under mu and read by enqueue under mu; the drain
	// also polls it between the messages of a batch, lock-free, so a stop
	// takes effect mid-batch.
	stopped atomic.Bool
	acts    *activityCounter
	// handle runs once per message, in FIFO order, never concurrently; the
	// pointer is valid only for the call.
	handle func(*message)
}

func newActor(acts *activityCounter, handle func(*message)) *actor {
	return &actor{acts: acts, handle: handle}
}

// enqueue appends a message (counts as activity until processed) and, if the
// actor was idle, claims it: for the list of w, the worker the calling
// handler runs on, or, outside a handler (w nil), for a new worker — the
// runtime's only source of parallelism. It never blocks and runs no handler,
// so it is legal under rt.mu or a stripe (lock order mu → stripe → mailbox).
//
//bneck:locks mailbox
func (a *actor) enqueue(m message, w *worker) {
	a.acts.add(1)
	a.mu.Lock()
	if a.stopped.Load() {
		a.mu.Unlock()
		a.acts.add(-1)
		return
	}
	a.queue = append(a.queue, m)
	claimed := !a.running
	a.running = true
	a.mu.Unlock()
	if claimed && w != nil {
		w.next = append(w.next, a)
	} else if claimed {
		startWorker(a)
	}
}

// drain works through the claimed actor's mailbox, batch after batch, until
// it finds it empty under mu — a stop leaves it so — and releases the claim.
//
//bneck:locks mailbox
func (a *actor) drain(w *worker) {
	a.w = w
	for {
		a.mu.Lock()
		if len(a.queue) == 0 {
			a.running = false
			a.mu.Unlock()
			return
		}
		a.batch, a.queue = a.queue, a.batch[:0]
		a.mu.Unlock()
		n := len(a.batch)
		for i := 0; i < n && !a.stopped.Load(); i++ {
			a.handle(&a.batch[i])
		}
		if cap(a.batch) > mailboxKeep {
			a.batch = nil
		} else {
			clear(a.batch) // a kept buffer must not pin dead incarnations
		}
		// One decrement for the whole batch, after its last handler: what
		// the handlers emitted is already counted, so the counter cannot
		// reach zero mid-cascade. It un-counts what a stop cut off, too.
		a.acts.add(-int64(n))
	}
}

// stop retires the actor; queued messages are dropped (and un-counted) so
// Close never hangs the activity counter. A drain in mid-batch drops and
// un-counts the rest; a claim waiting on a list finds the mailbox empty.
//
//bneck:locks mailbox
func (a *actor) stop() {
	a.mu.Lock()
	dropped := len(a.queue)
	a.queue = nil
	a.stopped.Store(true)
	a.mu.Unlock()
	a.acts.add(-int64(dropped))
}

// worker is one goroutine's private list of claimed actors: no lock, no
// sharing. run drains them in claim order, what their handlers claim joins
// the back — a trampoline, constant stack depth for any cascade — and the
// goroutine ends with the list. The activity counter is what waits for it.
type worker struct {
	cur, next []*actor // cur is being drained; claims append to next
	loop      func()   // run, bound once, so that `go w.loop()` allocates nothing
}

// spareWorkers recycles finished workers' list buffers (no goroutine, no
// actor), so that a control-plane call allocates nothing.
var spareWorkers sync.Pool

func startWorker(first *actor) {
	w, _ := spareWorkers.Get().(*worker)
	if w == nil {
		w = new(worker)
		w.loop = w.run
	}
	w.next = append(w.next, first)
	go w.loop()
}

func (w *worker) run() {
	for turns := 0; len(w.next) > 0; {
		w.cur, w.next = w.next, w.cur[:0]
		for i, a := range w.cur {
			w.cur[i] = nil
			a.drain(w)
			if turns++; turns%sliceTurns == 0 {
				runtime.Gosched()
			}
		}
	}
	spareWorkers.Put(w)
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
