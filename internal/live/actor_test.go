package live

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bneck/internal/core"
)

// waitOrFail fails the test when the counter has not drained in time — a
// message left counted would otherwise hang the test binary.
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
		t.Fatalf("activity counter stuck at %d", acts.n.Load())
	}
}

// TestActorFIFO: several producers race the batch drain. Per-producer order
// must survive every batch boundary, and the handler must never run
// concurrently with itself (its state is deliberately unsynchronized, so
// -race flags an overlap too).
func TestActorFIFO(t *testing.T) {
	const producers, each = 4, 5000
	acts := newActivityCounter()
	a := newActor(acts)
	var running atomic.Bool
	next := make([]int32, producers) // handler-only state
	handled := 0
	a.start(func(m *message) {
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
				a.enqueue(message{kind: msgPacket, hop: int32(i), pkt: core.Packet{Session: core.SessionID(p)}})
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
	a := newActor(acts)
	for i := 0; i < burst; i++ {
		a.enqueue(message{kind: msgPacket, hop: int32(i)})
	}
	handled := 0
	a.start(func(m *message) {
		if int(m.hop) != handled {
			t.Errorf("got message %d, want %d", m.hop, handled)
		}
		handled++
	})
	waitOrFail(t, acts)
	// A trickle afterwards runs on the two small buffers.
	for i := 0; i < 3; i++ {
		a.enqueue(message{kind: msgPacket, hop: int32(burst + i)})
		waitOrFail(t, acts)
	}
	if handled != burst+3 {
		t.Fatalf("handled %d of %d", handled, burst+3)
	}
	checkMailboxBounded(t, "actor", a)
	a.stop()
}

// checkMailboxBounded asserts the post-quiescence mailbox invariant: nothing
// queued, and neither buffer holds more than mailboxKeep messages' worth of
// memory. Call only after the activity counter has been seen at zero (that
// is what makes reading batch safe).
func checkMailboxBounded(t *testing.T, name string, a *actor) {
	t.Helper()
	a.mu.Lock()
	queued, qcap := len(a.queue), cap(a.queue)
	a.mu.Unlock()
	if queued != 0 {
		t.Errorf("%s: %d messages queued after quiescence", name, queued)
	}
	if qcap > mailboxKeep || cap(a.batch) > mailboxKeep {
		t.Errorf("%s: buffers of %d and %d messages kept, bound %d", name, qcap, cap(a.batch), mailboxKeep)
	}
}

// TestActorStopMidBatch: stop arrives while the loop is in the middle of a
// batch. The rest of the batch must be dropped — not handled — and
// un-counted, together with what was enqueued behind it, so the counter
// returns to exactly zero and wait returns.
func TestActorStopMidBatch(t *testing.T) {
	const batch, handledBeforeStop = 10, 4
	acts := newActivityCounter()
	a := newActor(acts)
	for i := 0; i < batch; i++ {
		a.enqueue(message{kind: msgPacket, hop: int32(i)})
	}
	reached := make(chan struct{})
	release := make(chan struct{})
	var handled atomic.Int32
	// Started after the enqueues: the loop's first drain takes all ten.
	a.start(func(m *message) {
		if handled.Add(1) == handledBeforeStop {
			close(reached)
			<-release
		}
	})
	<-reached
	for i := 0; i < 3; i++ { // lands behind the batch, in the mailbox proper
		a.enqueue(message{kind: msgPacket, hop: int32(batch + i)})
	}
	// The message being handled, the unhandled rest of the batch and the
	// three behind it are all still activity.
	if got, min := acts.n.Load(), int64(batch-handledBeforeStop+1+3); got < min {
		t.Fatalf("counter = %d mid-batch, want at least %d", got, min)
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
// un-counted.
func TestActorEnqueueAfterStop(t *testing.T) {
	acts := newActivityCounter()
	a := newActor(acts)
	a.start(func(*message) { t.Error("handler ran on a stopped actor") })
	a.stop()
	a.enqueue(message{kind: msgPacket})
	a.enqueue(message{kind: msgPacket})
	if got := acts.n.Load(); got != 0 {
		t.Fatalf("counter = %d after enqueue on a stopped actor, want 0", got)
	}
	waitOrFail(t, acts)
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
			returned.Add(1)
		}()
	}

	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < pairs/workers; i++ {
				c.add(1)
				c.add(-1)
			}
		}()
	}
	wg.Wait()
	if got := returned.Load(); got != 0 {
		t.Fatalf("%d waiters returned while the count was held above zero", got)
	}

	released = true
	c.add(-1)
	ww.Wait() // hangs (and the test times out) if a wake-up is lost
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
