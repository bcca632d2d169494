package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// refEvent / refHeap is a container/heap-based event queue over the
// unpacked key, kept as the executable specification the radix queue must
// match: pop order is (time, creator, creator sequence) ascending. fn is
// the callback, for FuzzEventOrder's reference engine.
type refEvent struct {
	at     Time
	src    int32
	seq    uint64
	daemon bool
	fn     func()
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
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

// refPair drives the radix queue and the reference with identical pushes
// and requires identical pops.
type refPair struct {
	t   *testing.T
	q   eventQueue
	ref refHeap
	ctr map[int32]uint64
	now Time // time of the latest pop: no push may precede it
}

func (p *refPair) push(at Time, src int32, daemon bool) {
	p.ctr[src]++
	seq := p.ctr[src]
	p.q.push(event{at: at, key: eventKey(src, seq, daemon)})
	heap.Push(&p.ref, &refEvent{at: at, src: src, seq: seq, daemon: daemon})
}

func (p *refPair) pop(where string) {
	p.t.Helper()
	if got, want := p.q.minTime(), p.ref[0].at; got != want {
		p.t.Fatalf("%s: minTime %v, reference %v", where, got, want)
	}
	got := p.q.pop()
	want := heap.Pop(&p.ref).(*refEvent)
	if got.at != want.at || keySrc(got.key) != want.src || keySeq(got.key) != want.seq || (got.key&1 != 0) != want.daemon {
		p.t.Fatalf("%s: popped (at=%v src=%d seq=%d key=%#x), reference (at=%v src=%d seq=%d daemon=%v)",
			where, got.at, keySrc(got.key), keySeq(got.key), got.key, want.at, want.src, want.seq, want.daemon)
	}
	p.now = got.at
}

func (p *refPair) drain(where string) {
	p.t.Helper()
	for p.ref.Len() > 0 {
		p.pop(where)
	}
	if p.q.len() != 0 {
		p.t.Fatalf("%s: queue holds %d events after the reference drained", where, p.q.len())
	}
}

// TestPropHeapMatchesContainerHeap drives the radix queue and the
// container/heap reference through identical random schedules — external
// (ExtCreator) and node creators, daemon events, heavy same-time ties, time
// scales from nanoseconds to minutes, pushes at the current instant in the
// middle of a drain — and a 10⁵-event burst at one instant, and requires
// identical drain order.
func TestPropHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		p := &refPair{t: t, ctr: map[int32]uint64{}}
		// Few distinct offsets => many ties; a random scale moves them
		// across the buckets.
		distinct := 1 + rng.Intn(20)
		scale := Time(1) << rng.Intn(40)
		creators := 1 + rng.Intn(8)
		steps := 1 + rng.Intn(500)
		for s := 0; s < steps; s++ {
			if p.ref.Len() > 0 && rng.Intn(3) == 0 {
				p.pop(fmt.Sprintf("iter %d interleaved", iter))
				continue
			}
			at := p.now + Time(rng.Intn(distinct))*scale
			p.push(at, int32(rng.Intn(creators+1))-1, rng.Intn(4) == 0)
		}
		for p.ref.Len() > 0 {
			p.pop(fmt.Sprintf("iter %d drain", iter))
			if rng.Intn(4) == 0 {
				p.push(p.now, int32(rng.Intn(creators+1))-1, false)
			}
		}
	}

	p := &refPair{t: t, ctr: map[int32]uint64{}}
	const burst = 100_000
	at := 3 * time.Millisecond
	p.push(time.Millisecond, ExtCreator, false)
	p.pop("burst prelude")
	for i := 0; i < burst; i++ {
		p.push(at, int32(rng.Intn(1000))-1, i%7 == 0)
	}
	p.push(2*at, 0, false)
	for i := 0; i < burst/2; i++ {
		p.pop("burst")
	}
	for i := 0; i < 100; i++ {
		p.push(at, int32(rng.Intn(10))-1, false)
	}
	p.drain("burst drain")
}

// TestFrontRemovalIntegrity takes each slot of the frontier — the chooser's
// removal of an enabled event that is not the key minimum — and checks that
// the rest still pops in (time, key) order and that nothing is lost.
func TestFrontRemovalIntegrity(t *testing.T) {
	const n = 64
	fill := func() *eventQueue {
		q := new(eventQueue)
		for i := 0; i < n; i++ {
			// A third at the frontier, with scattered keys; the rest later.
			at := Time(i%3) * Time((i*37)%n+1) * time.Microsecond
			q.push(event{at: at, key: eventKey(int32((i*13)%7)-1, uint64(i+1), false)})
		}
		return q
	}
	frontier := len(fill().front())
	if frontier < 2 {
		t.Fatalf("frontier holds %d events; the test needs several", frontier)
	}
	for slot := 0; slot < frontier; slot++ {
		q := fill()
		q.front()
		removed := q.take(slot)
		seen := map[uint64]bool{removed.key: true}
		var prev event
		for i := 0; q.len() > 0; i++ {
			ev := q.pop()
			if i > 0 && (ev.at < prev.at || ev.at == prev.at && ev.key < prev.key) {
				t.Fatalf("slot %d: pop order violated after removal (removed %v)", slot, removed)
			}
			seen[ev.key] = true
			prev = ev
		}
		if len(seen) != n {
			t.Fatalf("slot %d: %d distinct events out of %d", slot, len(seen), n)
		}
	}
}

// TestHeapPopReleasesClosure guards against the queue pinning executed
// closures: the slot a pop vacates in bucket 0, and the slots a refill
// vacates when it redistributes a bucket, must be zeroed so the GC can
// reclaim the captured state.
func TestHeapPopReleasesClosure(t *testing.T) {
	var q eventQueue
	fn := func() {}
	// Times 4 and 6 differ from 0 first in bit 2: both in bucket 3. The
	// refill for 4 moves 6 to bucket 2 (6^4 = 2), the one for 6 empties it.
	q.push(event{at: 4, key: eventKey(0, 1, false), fn: fn})
	q.push(event{at: 6, key: eventKey(0, 2, false), fn: fn})
	q.push(event{at: 0, key: eventKey(0, 3, false), fn: fn})
	pinned := func(b int, n int) bool {
		for _, ev := range q.b[b][:n] {
			if ev.fn != nil {
				return true
			}
		}
		return false
	}
	q.pop()
	if pinned(0, 1) {
		t.Fatal("popped bucket-0 slot still references its closure")
	}
	q.pop()
	if pinned(3, 2) || pinned(0, 1) {
		t.Fatal("a slot vacated by the refill or the pop still references its closure")
	}
	q.pop()
	if pinned(2, 1) || pinned(0, 1) {
		t.Fatal("a slot vacated by the second refill still references its closure")
	}
}

// TestRunUntilThenEarlierPush: RunUntil stops short of the next event, and
// an event scheduled after it, earlier than that next event, must run first.
// A minTime that advanced the queue's base time to the next event would file
// the new one in the wrong bucket.
func TestRunUntilThenEarlierPush(t *testing.T) {
	const t0 = 100 * time.Microsecond
	e := New()
	var got []Time
	rec := func() { got = append(got, e.Now()) }
	e.At(0, rec)
	e.At(t0+10, rec)
	e.RunUntil(t0)
	e.At(t0+5, rec)
	e.Run()
	if len(got) != 3 || got[1] != t0+5 || got[2] != t0+10 {
		t.Fatalf("ran at %v, want [0 %v %v]", got, t0+5, t0+10)
	}
}

// TestEventKeyOrder: one unsigned compare of two packed keys gives the
// lexicographic (creator, sequence) order, at the edges of both fields, and
// the key unpacks to what was packed.
func TestEventKeyOrder(t *testing.T) {
	srcs := []int32{ExtCreator, 0, 1, maxCreator - 2, maxCreator - 1}
	seqs := []uint64{1, 2, 1<<32 + 1, 1<<seqBits - 2, 1<<seqBits - 1}
	type unpacked struct {
		src    int32
		seq    uint64
		daemon bool
		key    uint64
	}
	var all []unpacked
	for _, src := range srcs {
		for _, seq := range seqs {
			for _, d := range []bool{false, true} {
				k := eventKey(src, seq, d)
				if keySrc(k) != src || keySeq(k) != seq || (k&1 != 0) != d {
					t.Fatalf("key %#x of (%d, %d, %v) unpacks to (%d, %d, %v)", k, src, seq, d, keySrc(k), keySeq(k), k&1 != 0)
				}
				all = append(all, unpacked{src, seq, d, k})
			}
		}
	}
	for _, a := range all {
		for _, b := range all {
			if a.src == b.src && a.seq == b.seq {
				continue // one creator never reuses a sequence number
			}
			lex := a.src < b.src || a.src == b.src && a.seq < b.seq
			if (a.key < b.key) != lex {
				t.Fatalf("(%d, %d) < (%d, %d) is %v, packed keys %#x < %#x say %v",
					a.src, a.seq, b.src, b.seq, lex, a.key, b.key, a.key < b.key)
			}
		}
	}
}

// TestKeyedConstructorsRejectBadKeys: a creator outside [0, 2²⁴−1), or the
// engine's sequence number past 39 bits, is refused with a sim: panic
// instead of an index panic or a key that sorts wrong.
func TestKeyedConstructorsRejectBadKeys(t *testing.T) {
	cases := []struct {
		name string
		send func(e *Engine)
	}{
		{"ExtCreator", func(e *Engine) { e.SendFrom(ExtCreator, 0, func() {}) }},
		{"negative creator", func(e *Engine) { e.SendFromTo(-5, 0, 0, func() {}) }},
		{"first creator out of range", func(e *Engine) { e.SendFrom(1<<24-1, 0, func() {}) }},
		{"creator seq overflow", func(e *Engine) {
			e.seq = 1<<39 - 1
			e.SendFrom(0, 0, func() {})
		}},
		{"external seq overflow", func(e *Engine) {
			e.seq = 1<<39 - 1
			e.At(0, func() {})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.HasPrefix(msg, "sim:") {
					t.Fatalf("panic %q, want a sim: message", msg)
				}
			}()
			tc.send(New())
		})
	}
	// The last creator in range is accepted.
	e := New()
	e.SendFrom(1<<24-2, 0, func() {})
	if e.Run(); e.Events() != 1 {
		t.Fatalf("last creator in range: %d events ran", e.Events())
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

// TestStoppedRunUntilKeepsClock: a Stop inside RunUntil leaves the clock at
// the stopping event, not at RunUntil's bound, so the events still due
// before the bound can be scheduled next to and run later without the
// clock ever going back.
func TestStoppedRunUntilKeepsClock(t *testing.T) {
	e := New()
	var clock []Time
	for i := 1; i <= 6; i++ {
		i := i
		e.At(time.Duration(i)*time.Millisecond, func() {
			clock = append(clock, e.Now())
			if i == 2 {
				e.Stop()
			}
		})
	}
	e.RunUntil(10 * time.Millisecond)
	if e.Now() != 2*time.Millisecond || e.Pending() != 4 {
		t.Fatalf("after the stop: Now = %v with %d events pending, want 2ms and 4", e.Now(), e.Pending())
	}
	e.At(3*time.Millisecond, func() { clock = append(clock, e.Now()) }) // must not panic
	e.Run()
	if len(clock) != 7 || e.Now() != 6*time.Millisecond {
		t.Fatalf("%d events ran, Now = %v; want 7 and 6ms", len(clock), e.Now())
	}
	for i := 1; i < len(clock); i++ {
		if clock[i] < clock[i-1] {
			t.Fatalf("the clock went back: %v", clock)
		}
	}
	// Unstopped, RunUntil still moves the clock to its bound.
	e.RunUntil(10 * time.Millisecond)
	if e.Now() != 10*time.Millisecond {
		t.Fatalf("Now = %v after an unstopped RunUntil, want 10ms", e.Now())
	}
}

// BenchmarkEventQueue holds a queue at the mean depths the benchmark's
// workloads show at a send — 300 (churn_wan) and 1400 (chains_bare) — and
// replaces each popped event with one a random link delay later, under LAN
// (1–50 µs) and WAN (0.1–10 ms) delays; Burst pushes 1400 events at one
// instant and drains them. An op is one push and one pop.
func BenchmarkEventQueue(b *testing.B) {
	for _, depth := range []int{300, 1400} {
		for _, d := range []struct {
			name   string
			lo, hi Time
		}{{"LAN", time.Microsecond, 50 * time.Microsecond}, {"WAN", 100 * time.Microsecond, 10 * time.Millisecond}} {
			b.Run(fmt.Sprintf("%s/%d", d.name, depth), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				delay := make([]Time, 4096)
				for i := range delay {
					delay[i] = d.lo + Time(rng.Int63n(int64(d.hi-d.lo)))
				}
				var q eventQueue
				seq := uint64(0)
				for i := 0; i < depth; i++ {
					seq++
					q.push(event{at: delay[i], key: eventKey(int32(i), seq, false)})
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ev := q.pop()
					seq++
					q.push(event{at: ev.at + delay[i%len(delay)], key: eventKey(keySrc(ev.key), seq, false)})
				}
			})
		}
	}
	b.Run("Burst/1400", func(b *testing.B) {
		const burst = 1400
		creators := rand.New(rand.NewSource(1)).Perm(burst)
		var q eventQueue
		var now Time
		seq := uint64(0)
		for i := 0; i < b.N; i++ {
			seq++
			q.push(event{at: now, key: eventKey(int32(creators[i%burst]), seq, false)})
			if q.len() == burst {
				for q.len() > 0 {
					q.pop()
				}
				now += time.Microsecond
			}
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
