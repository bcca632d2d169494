package live

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// mailboxKeep is the longest drained mailbox buffer (in messages, 16 KB) an
// actor keeps for reuse. A steady actor alternates between two buffers of
// at most this length for its whole life; a burst that grew one past it — a
// join storm through a core link — costs that one buffer to the collector
// instead of pinning the burst's high-water mark on every link actor until
// Close.
const mailboxKeep = 256

// sliceTurns is how many actors a worker drains (≈ 0.8 ms of work) between
// two yields to Go's scheduler. A cascade never blocks, so without the yield
// cascades in excess of the CPUs run one after the other, and B-Neck spends
// many times the packets on joins it sees in sequence instead of together:
// 256 joins on one CPU take 155 ms against 23 (smaller slices cost
// live_churn 4 % at 2048, 7 % at 1024).
const sliceTurns = 4096

// actor is an unbounded FIFO mailbox and the handler of the task it serves;
// it owns no goroutine. The enqueue that finds it idle claims it (running)
// and hands its message to the claim holder in head; the drain lets go only
// on finding the mailbox empty, both decided under mu. So one goroutine at a
// time runs handle — the per-task atomicity the protocol's when-blocks
// require — no message is left unclaimed, and successive claim holders are
// ordered by mu, so the task's state, head, batch and w need no lock.
//
// A message that finds the actor idle costs two lock round trips, claim and
// release. A drain takes the whole mailbox behind the head in one critical
// section and hands its emptied buffer back, so a burst of k costs one more.
type actor struct {
	mu      sync.Mutex //bneck:lock mailbox
	queue   []message  // producers append under mu
	running bool       // the claim; guarded by mu
	// head is the claiming message, written under mu by the enqueue that
	// claims and read by the claim holder alone. An idle actor's queue is
	// empty, so head precedes everything appended after the claim.
	head message
	// batch is the buffer the drain is working through, or has just worked
	// through. Only the claim holder touches it.
	batch []message
	// w is the draining worker, stamped by drain for the task's emitter.
	w *worker
	// stopped is written under mu and read by enqueue under mu; the drain
	// also polls it between messages, lock-free, so a stop takes effect
	// mid-batch.
	stopped atomic.Bool
	acts    *activityCounter // counts the workers this actor's claims start
	// handle runs once per message, in FIFO order, never concurrently; the
	// pointer is valid only for the call.
	handle func(*message)
}

// enqueue appends a message or, if the actor was idle, claims it with the
// message in head: for the list of w, the worker the calling handler runs
// on, or, outside a handler (w nil), for a new worker — the runtime's only
// source of parallelism. It never blocks and runs no handler, so it is
// legal under rt.mu (lock order mu → rate → mailbox).
//
//bneck:locks mailbox
func (a *actor) enqueue(m message, w *worker) {
	a.mu.Lock()
	if a.stopped.Load() {
		a.mu.Unlock()
		return
	}
	claimed := !a.running
	if claimed {
		a.head, a.running = m, true
	} else {
		a.queue = append(a.queue, m)
	}
	a.mu.Unlock()
	if claimed && w != nil {
		w.next = append(w.next, a)
	} else if claimed {
		startWorker(a)
	}
}

// drain handles the claimed actor's head, then works through its mailbox,
// batch after batch, until it finds it empty under mu — a stop leaves it so
// — and releases the claim.
//
//bneck:locks mailbox
func (a *actor) drain(w *worker) {
	a.w = w
	if !a.stopped.Load() {
		a.handle(&a.head)
	}
	a.head = message{} // must not pin a dead incarnation
	for {
		a.mu.Lock()
		if len(a.queue) == 0 {
			a.running = false
			a.mu.Unlock()
			return
		}
		a.batch, a.queue = a.queue, a.batch[:0]
		a.mu.Unlock()
		for i := 0; i < len(a.batch) && !a.stopped.Load(); i++ {
			a.handle(&a.batch[i])
		}
		if cap(a.batch) > mailboxKeep {
			a.batch = nil
		} else {
			clear(a.batch) // a kept buffer must not pin dead incarnations
		}
	}
}

// stop retires the actor: queued messages are dropped, a drain in mid-batch
// drops the rest of its batch, and a claim waiting on a list skips the head
// and finds the mailbox empty.
//
//bneck:locks mailbox
func (a *actor) stop() {
	a.mu.Lock()
	a.queue = nil
	a.stopped.Store(true)
	a.mu.Unlock()
}

// worker is one goroutine's private list of claimed actors: no lock, no
// sharing. run drains them in claim order, what their handlers claim joins
// the back — a trampoline, constant stack depth for any cascade — and the
// goroutine ends with the list, un-counting itself (activityCounter).
type worker struct {
	cur, next []*actor // cur is being drained; claims append to next
	loop      func()   // run, bound once, so that `go w.loop()` allocates nothing
	acts      *activityCounter
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
	w.acts = first.acts
	w.acts.add(1)
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
	w.acts.add(-1) // after the last handler: see activityCounter
	spareWorkers.Put(w)
}

// activityCounter is a reusable quiescence detector over live workers:
// add(+1) before a worker's `go`, add(−1) once it has emptied its list; wait
// blocks while the count is non-zero. Zero live workers is quiescence: a
// claimed actor is on a live worker's list or being drained, an unclaimed
// actor's mailbox is empty, and only a call from outside a handler starts a
// worker (DESIGN.md §3).
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
// read-modify-write of the same atomic, so the zero is ordered after every
// add before it — each counted worker's exit decrement among them, which
// follows its last handler — and the load that reads it after that: whatever
// a handler wrote is visible to the caller (Validate relies on it).
func (c *activityCounter) wait() {
	c.mu.Lock()
	for c.n.Load() != 0 {
		c.cond.Wait()
	}
	c.mu.Unlock()
}
