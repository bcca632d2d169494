package live

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"bneck/internal/core"
)

func newActor(acts *activityCounter, handle func(*message)) *actor {
	return &actor{acts: acts, handle: handle}
}

// waitOrFail fails the test when the counter has not drained in time — a
// worker that never ends would otherwise hang the test binary.
func waitOrFail(t *testing.T, acts *activityCounter) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		acts.wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("activity counter stuck at %d live workers", acts.n.Load())
	}
}

// TestActorFIFO: several producers race the batch drain. Per-producer order
// must survive every batch boundary, and the handler must never run
// concurrently with itself (its state is deliberately unsynchronized, so
// -race flags an overlap too).
func TestActorFIFO(t *testing.T) {
	const producers, each = 4, 5000
	acts := newActivityCounter()
	var running atomic.Bool
	next := make([]int32, producers) // handler-only state
	handled := 0
	a := newActor(acts, func(m *message) {
		if !running.CompareAndSwap(false, true) {
			t.Error("handler entered while another invocation was running")
		}
		p := int(m.pkt.Session)
		if m.hop != next[p] {
			t.Errorf("producer %d: got message %d, want %d", p, m.hop, next[p])
		}
		next[p] = m.hop + 1
		handled++
		running.Store(false)
	})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				a.enqueue(message{kind: msgPacket, hop: int32(i), pkt: core.Packet{Session: core.SessionID(p)}}, nil)
				if i%64 == 0 {
					runtime.Gosched() // let the drain interleave with the burst
				}
			}
		}(p)
	}
	wg.Wait()
	waitOrFail(t, acts)
	if handled != producers*each {
		t.Fatalf("handled %d of %d messages", handled, producers*each)
	}
	a.stop()
}

// TestActorBuffersBounded: a burst far past mailboxKeep is handled in order,
// and once it has drained neither of the actor's two buffers is longer than
// mailboxKeep — the burst's buffer went to the collector.
func TestActorBuffersBounded(t *testing.T) {
	const burst = 8 * mailboxKeep
	acts := newActivityCounter()
	gate := make(chan struct{})
	handled := 0
	a := newActor(acts, func(m *message) {
		if handled == 0 {
			<-gate // the burst piles up behind the first message
		}
		if int(m.hop) != handled {
			t.Errorf("got message %d, want %d", m.hop, handled)
		}
		handled++
	})
	for i := 0; i < burst; i++ {
		a.enqueue(message{kind: msgPacket, hop: int32(i)}, nil)
	}
	close(gate) // the rest of the burst, behind the head, is one batch
	waitOrFail(t, acts)
	// A trickle afterwards runs on the two small buffers.
	for i := 0; i < 3; i++ {
		a.enqueue(message{kind: msgPacket, hop: int32(burst + i)}, nil)
		waitOrFail(t, acts)
	}
	if handled != burst+3 {
		t.Fatalf("handled %d of %d", handled, burst+3)
	}
	checkMailboxBounded(t, "actor", a)
	a.stop()
}

// checkMailboxBounded asserts the post-quiescence mailbox invariant: nothing
// queued, the head cleared, and neither buffer holds more than mailboxKeep
// messages' worth of memory. Call only after the activity counter has been
// seen at zero (that is what makes reading head and batch safe).
func checkMailboxBounded(t *testing.T, name string, a *actor) {
	t.Helper()
	a.mu.Lock()
	queued, qcap := len(a.queue), cap(a.queue)
	a.mu.Unlock()
	if queued != 0 {
		t.Errorf("%s: %d messages queued after quiescence", name, queued)
	}
	if a.head != (message{}) {
		t.Errorf("%s: head still holds a handled message after quiescence", name)
	}
	if qcap > mailboxKeep || cap(a.batch) > mailboxKeep {
		t.Errorf("%s: buffers of %d and %d messages kept, bound %d", name, qcap, cap(a.batch), mailboxKeep)
	}
}

// TestActorStopMidBatch: stop arrives while the drain is in the middle of a
// batch. The rest of the batch must be dropped — not handled — together with
// what was enqueued behind it, so the claim-holding worker, the only one
// counted, ends and the counter returns to exactly zero.
func TestActorStopMidBatch(t *testing.T) {
	const batch, handledBeforeStop = 10, 4
	acts := newActivityCounter()
	gate := make(chan struct{})
	reached := make(chan struct{})
	release := make(chan struct{})
	var handled atomic.Int32
	a := newActor(acts, func(m *message) {
		if m.kind == msgJoin {
			<-gate // holds the drain while the batch is enqueued behind it
			return
		}
		if handled.Add(1) == handledBeforeStop {
			close(reached)
			<-release
		}
	})
	a.enqueue(message{kind: msgJoin}, nil)
	for i := 0; i < batch; i++ {
		a.enqueue(message{kind: msgPacket, hop: int32(i)}, nil)
	}
	close(gate) // the Join was the head; the ten are the first batch
	<-reached
	for i := 0; i < 3; i++ { // lands behind the batch, in the mailbox proper
		a.enqueue(message{kind: msgPacket, hop: int32(batch + i)}, nil)
	}
	// The message being handled, the unhandled rest of the batch and the
	// three behind it are all the claim holder's: one live worker.
	if got := acts.n.Load(); got != 1 {
		t.Fatalf("counter = %d mid-batch, want 1, the claim-holding worker", got)
	}
	a.stop()
	close(release)
	waitOrFail(t, acts)
	if got := handled.Load(); got != handledBeforeStop {
		t.Fatalf("handled %d messages, want %d: the remainder of a stopped batch must be dropped", got, handledBeforeStop)
	}
	if got := acts.n.Load(); got != 0 {
		t.Fatalf("counter = %d after stop, want 0", got)
	}
}

// TestActorEnqueueAfterStop: a message for a stopped actor is dropped and
// starts no worker.
func TestActorEnqueueAfterStop(t *testing.T) {
	acts := newActivityCounter()
	a := newActor(acts, func(*message) { t.Error("handler ran on a stopped actor") })
	a.stop()
	a.enqueue(message{kind: msgPacket}, nil)
	a.enqueue(message{kind: msgPacket}, nil)
	if got := acts.n.Load(); got != 0 {
		t.Fatalf("counter = %d after enqueue on a stopped actor, want 0", got)
	}
	waitOrFail(t, acts)
}

// TestClaimExclusiveAndFIFO: one target actor is fed two ways at once — by
// feeder actors whose handlers emit bursts into it on their own worker's list
// (the inline path), and by goroutines enqueueing from outside (each claim a
// fresh worker). Whoever wins a claim, one handler runs at a time, and every
// producer's messages arrive in the order they were sent: a handler's burst
// stays in emission order while the outside producers interleave.
func TestClaimExclusiveAndFIFO(t *testing.T) {
	const feeders, outside, rounds, burst = 3, 3, 2000, 5
	acts := newActivityCounter()
	var inflight atomic.Int32
	next := make([]int32, feeders+outside) // handler-only state
	handled := 0
	target := newActor(acts, func(m *message) {
		if inflight.Add(1) != 1 {
			t.Error("two handlers of one actor in flight")
		}
		p := int(m.pkt.Session)
		if m.hop != next[p] {
			t.Errorf("producer %d: got message %d, want %d", p, m.hop, next[p])
		}
		next[p]++
		handled++
		inflight.Add(-1)
	})
	feed := make([]*actor, feeders)
	for i := range feed {
		sent := int32(0) // the feeder's handler-only state
		feed[i] = newActor(acts, func(*message) {
			for k := 0; k < burst; k++ {
				target.enqueue(message{kind: msgPacket, hop: sent, pkt: core.Packet{Session: core.SessionID(i)}}, feed[i].w)
				sent++
			}
		})
	}
	var wg sync.WaitGroup
	for i := 0; i < feeders+outside; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if i < feeders {
					feed[i].enqueue(message{kind: msgPacket}, nil)
				} else {
					target.enqueue(message{kind: msgPacket, hop: int32(r), pkt: core.Packet{Session: core.SessionID(i)}}, nil)
				}
				if r%32 == 0 {
					runtime.Gosched() // let releases interleave with the claims
				}
			}
		}()
	}
	wg.Wait()
	waitOrFail(t, acts)
	if want := rounds * (feeders*burst + outside); handled != want {
		t.Fatalf("handled %d of %d messages", handled, want)
	}
}

// TestClaimNoLostWakeup: an enqueue races the drain's empty-mailbox release,
// 10⁵ times. Both are decided under the mailbox mutex, so the message is
// either picked up by the releasing drain or claims the actor anew; were
// running read or cleared outside the mutex, a round would leave its message
// queued on an unclaimed actor, where no worker would handle it before the
// wait below returned.
func TestClaimNoLostWakeup(t *testing.T) {
	rounds := 100_000
	if testing.Short() {
		rounds = 10_000
	}
	acts := newActivityCounter()
	handled := 0
	a := newActor(acts, func(*message) { handled++ })
	done := make(chan int, 1)
	go func() {
		for r := 0; r < rounds; r++ {
			a.enqueue(message{kind: msgPacket}, nil) // a fresh worker drains one message and releases
			a.enqueue(message{kind: msgPacket}, nil) // races that release
			acts.wait()
			if handled != 2*(r+1) {
				done <- r
				return
			}
		}
		done <- rounds
	}()
	select {
	case r := <-done:
		if r != rounds {
			t.Fatalf("round %d: a wake-up was lost, %d of %d messages handled at quiescence", r, handled, 2*(r+1))
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("counter stuck at %d", acts.n.Load())
	}
}

// privateWorker returns a worker for the test to fill and run on its own
// goroutine. run recycles it and un-counts it, so it must be as startWorker
// would build it, counted on acts.
func privateWorker(acts *activityCounter) *worker {
	w := &worker{acts: acts}
	w.loop = w.run
	acts.add(1)
	return w
}

// TestClaimSelfSend: a handler that sends to its own actor does not claim it
// a second time — the message is taken by the drain already running.
func TestClaimSelfSend(t *testing.T) {
	const chain = 5
	acts := newActivityCounter()
	handled := 0
	var a *actor
	a = newActor(acts, func(m *message) {
		handled++
		if int(m.hop) < chain {
			a.enqueue(message{kind: msgPacket, hop: m.hop + 1}, a.w)
		}
		if n := len(a.w.cur) + len(a.w.next); n != 1 {
			t.Errorf("worker lists hold %d entries after a self-send, want the one being drained", n)
		}
	})
	w := privateWorker(acts)
	a.enqueue(message{kind: msgPacket}, w)
	w.run()
	if handled != chain+1 || acts.n.Load() != 0 || a.running {
		t.Fatalf("handled %d of %d, counter %d, running %t", handled, chain+1, acts.n.Load(), a.running)
	}
}

// TestClaimStoppedOnList: an actor stopped while it waits on a worker's list
// is skipped — its handler never runs — and leaves the counter at zero.
func TestClaimStoppedOnList(t *testing.T) {
	acts := newActivityCounter()
	ran := 0
	first := newActor(acts, func(*message) { ran++ })
	second := newActor(acts, func(*message) { t.Error("handler ran on an actor stopped while claimed") })
	w := privateWorker(acts)
	first.enqueue(message{kind: msgPacket}, w)
	second.enqueue(message{kind: msgPacket}, w)
	second.enqueue(message{kind: msgPacket}, w)
	second.stop()
	w.run()
	if ran != 1 || acts.n.Load() != 0 || second.running {
		t.Fatalf("first ran %d times, counter %d, stopped actor running %t", ran, acts.n.Load(), second.running)
	}
}

// TestWorkerYieldsWithinSlice: a cascade never blocks, so on one CPU only
// the worker's own yield, every sliceTurns drains, lets anything else run
// before the cascade ends — here a goroutine the first hop starts, which a
// ping-pong of 3 × sliceTurns hops must have seen run by its last hop.
func TestWorkerYieldsWithinSlice(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const hops = 3 * sliceTurns
	acts := newActivityCounter()
	var other atomic.Bool
	sawOther := false
	var pair [2]*actor
	for i := range pair {
		pair[i] = newActor(acts, func(m *message) {
			if m.hop == 0 {
				go other.Store(true) // runnable from the first hop on
			}
			if m.hop < hops {
				pair[1-i].enqueue(message{kind: msgPacket, hop: m.hop + 1}, pair[i].w)
			} else {
				sawOther = other.Load()
			}
		})
	}
	pair[0].enqueue(message{kind: msgPacket}, nil)
	waitOrFail(t, acts)
	if !sawOther {
		t.Fatalf("a cascade of %d turns ran to its end without yielding the CPU", hops)
	}
}

// TestActivityCounterNoEarlyWake is the counter's contract under contention:
// while one token keeps the count above zero, any number of add(+1)/add(−1)
// pairs may run and no waiter returns; when the token is released every
// waiter returns, and sees what the releaser wrote before releasing.
// released is a plain variable on purpose: under -race the detector checks
// that the atomic chain orders its write before each waiter's read — the
// happens-before Validate relies on.
func TestActivityCounterNoEarlyWake(t *testing.T) {
	const pairs, waiters = 100_000, 4
	c := newActivityCounter()
	c.add(1) // the guard token

	released := false
	seen := 0 // written by the handlers of an actor on c, below
	var returned atomic.Int32
	var ww sync.WaitGroup
	for i := 0; i < waiters; i++ {
		ww.Add(1)
		go func() {
			defer ww.Done()
			c.wait()
			if !released {
				t.Error("waiter returned before the guard token was released")
			}
			if seen == 0 {
				t.Error("waiter does not see what the actor's handlers wrote")
			}
			returned.Add(1)
		}()
	}

	// Every tenth pair goes through an actor on the same counter instead.
	// Each enqueue that finds it idle starts a fresh worker, counted on c,
	// and makes it the owner, so the plain seen is written by many successive
	// owners ordered by nothing but the mailbox mutex (the next handler
	// relies on that edge), and read by the waiters through the counter's
	// chain, which each worker's exit decrement joins after its last handler
	// (Validate relies on both).
	a := newActor(c, func(*message) { seen++ })
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < pairs/workers; i++ {
				if i%10 == 0 {
					a.enqueue(message{kind: msgPacket}, nil)
					continue
				}
				c.add(1)
				c.add(-1)
			}
		}()
	}
	wg.Wait()
	if got := returned.Load(); got != 0 {
		t.Fatalf("%d waiters returned while the count was held above zero", got)
	}
	for c.n.Load() != 1 { // the actor's workers end; only the guard stays
		runtime.Gosched()
	}

	released = true
	c.add(-1)
	ww.Wait() // hangs (and the test times out) if a wake-up is lost
	if want := workers * ((pairs/workers + 9) / 10); seen != want {
		t.Fatalf("actor handled %d messages, want %d", seen, want)
	}
	if got := c.n.Load(); got != 0 {
		t.Fatalf("counter = %d, want 0", got)
	}
	c.wait() // reusable: a silent counter does not block
}

func TestActivityCounterUnderflowPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "live: activity counter underflow" {
			t.Fatalf("recovered %v, want the underflow panic", r)
		}
	}()
	newActivityCounter().add(-1)
}

// TestActorHeadFIFO: producers race the claim, round after round. Each round
// starts on an idle actor, so one producer's first message becomes the head
// and the others' land in the mailbox before or after the claim holder has
// handled it; every producer's order must survive that head → mailbox
// boundary, and each round ends with its messages all handled and the head
// cleared.
func TestActorHeadFIFO(t *testing.T) {
	const producers, each = 4, 3
	rounds := 2000
	if testing.Short() {
		rounds = 200
	}
	acts := newActivityCounter()
	next := make([]int32, producers) // handler-only state
	handled := 0
	a := newActor(acts, func(m *message) {
		p := int(m.pkt.Session)
		if m.hop != next[p] {
			t.Errorf("producer %d: got message %d, want %d", p, m.hop, next[p])
		}
		next[p] = m.hop + 1
		handled++
	})
	for r := 0; r < rounds; r++ {
		var start, wg sync.WaitGroup
		start.Add(1)
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				for i := 0; i < each; i++ {
					a.enqueue(message{kind: msgPacket, hop: int32(r*each + i), pkt: core.Packet{Session: core.SessionID(p)}}, nil)
				}
			}()
		}
		start.Done()
		wg.Wait()
		waitOrFail(t, acts)
		if want := (r + 1) * producers * each; handled != want {
			t.Fatalf("round %d: handled %d of %d messages at quiescence", r, handled, want)
		}
		checkMailboxBounded(t, "actor", a)
	}
	a.stop()
}

// TestMessageSize pins a message to one cache line: every append to a
// mailbox and every hand-off through head copies one.
func TestMessageSize(t *testing.T) {
	if got := unsafe.Sizeof(message{}); got != 64 {
		t.Fatalf("message is %d bytes, want 64", got)
	}
}
