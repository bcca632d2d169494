package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// refEvent / refHeap is the original container/heap-based event queue, kept
// here as the executable specification the inlined 4-ary heap must match:
// pop order is (time, sequence number) ascending, i.e. same-time events
// drain in push order.
type refEvent struct {
	at  Time
	seq uint64
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// TestPropHeapMatchesContainerHeap drives the value-typed 4-ary queue and
// the container/heap reference through identical random schedules —
// including heavy same-time ties and interleaved pushes and pops — and
// requires bit-identical drain order.
func TestPropHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		var q eventQueue
		ref := &refHeap{}
		seq := uint64(0)
		// Few distinct timestamps => many FIFO ties.
		distinct := 1 + rng.Intn(20)
		steps := 1 + rng.Intn(500)
		pending := 0
		check := func(op string) {
			got := q.pop()
			want := heap.Pop(ref).(*refEvent)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("iter %d %s: popped (at=%v seq=%d), reference (at=%v seq=%d)",
					iter, op, got.at, got.seq, want.at, want.seq)
			}
		}
		for s := 0; s < steps; s++ {
			if pending > 0 && rng.Intn(3) == 0 {
				check("interleaved")
				pending--
				continue
			}
			at := time.Duration(rng.Intn(distinct)) * time.Microsecond
			seq++
			q.push(event{at: at, seq: seq})
			heap.Push(ref, &refEvent{at: at, seq: seq})
			pending++
		}
		for pending > 0 {
			check("drain")
			pending--
		}
		if q.len() != 0 || ref.Len() != 0 {
			t.Fatalf("iter %d: queues not empty (%d, %d)", iter, q.len(), ref.Len())
		}
	}
}

// TestHeapPopReleasesClosure guards against the value heap pinning executed
// closures: the vacated tail slot must be zeroed so the GC can reclaim the
// captured state.
func TestHeapPopReleasesClosure(t *testing.T) {
	var q eventQueue
	q.push(event{at: 1, seq: 1, fn: func() {}})
	q.pop()
	if q.ev[:1][0].fn != nil {
		t.Fatal("popped slot still references its closure")
	}
}

// TestStopThenRun is the regression test for Engine.Run's stopped flag: a
// Stop must halt only the current Run/RunUntil, and any later Run or
// RunUntil must clear it and resume from where the engine halted.
func TestStopThenRun(t *testing.T) {
	e := New()
	ran := 0
	for i := 1; i <= 6; i++ {
		i := i
		e.At(time.Duration(i)*time.Millisecond, func() {
			ran++
			if i == 2 || i == 4 {
				e.Stop()
			}
		})
	}
	if q := e.Run(); q != 2*time.Millisecond || ran != 2 {
		t.Fatalf("first Run: q=%v ran=%d", q, ran)
	}
	// Re-entering Run must clear the Stop and make progress again.
	if q := e.Run(); q != 4*time.Millisecond || ran != 4 {
		t.Fatalf("second Run: q=%v ran=%d", q, ran)
	}
	// RunUntil after a Stop must equally resume.
	e.RunUntil(10 * time.Millisecond)
	if ran != 6 {
		t.Fatalf("RunUntil after Stop: ran=%d", ran)
	}
	if e.Now() != 10*time.Millisecond {
		t.Fatalf("Now = %v", e.Now())
	}
	// A stray Stop with nothing running must not wedge the next Run.
	e.Stop()
	fired := false
	e.At(11*time.Millisecond, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("Run after idle Stop did not execute events")
	}
}

func BenchmarkEventQueue(b *testing.B) {
	b.Run("PushPop/1024", func(b *testing.B) {
		q := eventQueue{ev: make([]event, 0, 1024)}
		for i := 0; i < 1024; i++ {
			q.push(event{at: Time(i % 37), seq: uint64(i)})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev := q.pop()
			ev.seq = uint64(i + 1024)
			ev.at += 37
			q.push(ev)
		}
	})
}

// BenchmarkSimEngine is the engine's hot path as a transport drives it: one
// event scheduled and executed, directly and through a wire.
func BenchmarkSimEngine(b *testing.B) {
	b.Run("ScheduleExecute", func(b *testing.B) {
		eng := New()
		fn := func() {}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.After(time.Microsecond, fn)
			eng.Step()
		}
	})
	b.Run("WireSend", func(b *testing.B) {
		eng := New()
		w := NewWire(eng, time.Microsecond, 100*time.Nanosecond)
		fn := func() {}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Send(fn)
			eng.Step()
		}
	})
}
