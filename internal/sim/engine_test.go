package sim

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	e := New()
	var got []int
	e.At(30*time.Microsecond, func() { got = append(got, 3) })
	e.At(10*time.Microsecond, func() { got = append(got, 1) })
	e.At(20*time.Microsecond, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if e.Now() != 30*time.Microsecond {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of scheduling order at %d: %v", i, v)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var got []string
	e.At(time.Millisecond, func() {
		got = append(got, "a")
		e.After(time.Millisecond, func() { got = append(got, "c") })
		e.After(0, func() { got = append(got, "b") })
	})
	e.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.At(time.Millisecond, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	e.At(time.Microsecond, func() {})
}

func TestDaemonDoesNotKeepRunAlive(t *testing.T) {
	e := New()
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		e.DaemonAt(e.Now()+time.Millisecond, tick)
	}
	e.DaemonAt(time.Millisecond, tick)
	e.At(3500*time.Microsecond, func() {})
	q := e.Run()
	if q != 3500*time.Microsecond {
		t.Fatalf("quiescence = %v", q)
	}
	// Ticks at 1ms, 2ms, 3ms ran (due before the last regular event); the
	// 4ms tick and beyond never ran.
	if ticks != 3 {
		t.Fatalf("ticks = %d", ticks)
	}
}

func TestRunReturnsLastBusy(t *testing.T) {
	e := New()
	e.At(time.Millisecond, func() {})
	e.DaemonAt(5*time.Millisecond, func() {})
	if q := e.Run(); q != time.Millisecond {
		t.Fatalf("quiescence = %v", q)
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var got []int
	e.At(1*time.Millisecond, func() { got = append(got, 1) })
	e.At(2*time.Millisecond, func() { got = append(got, 2) })
	e.At(3*time.Millisecond, func() { got = append(got, 3) })
	e.RunUntil(2 * time.Millisecond)
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	if e.Now() != 2*time.Millisecond {
		t.Fatalf("Now = %v", e.Now())
	}
	e.Run()
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestStop(t *testing.T) {
	e := New()
	ran := 0
	for i := 1; i <= 10; i++ {
		e.At(time.Duration(i)*time.Millisecond, func() {
			ran++
			if ran == 5 {
				e.Stop()
			}
		})
	}
	e.Run()
	if ran != 5 {
		t.Fatalf("ran = %d", ran)
	}
	e.Run() // resumes
	if ran != 10 {
		t.Fatalf("ran = %d after resume", ran)
	}
}

func TestWireFIFOAndSerialization(t *testing.T) {
	e := New()
	w := NewWire(e, 10*time.Microsecond, 2*time.Microsecond)
	var arrivals []Time
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		at := w.Send(func() {
			arrivals = append(arrivals, e.Now())
			order = append(order, i)
		})
		_ = at
	}
	e.Run()
	// First packet: 2us tx + 10us prop = 12us; each next +2us.
	for i, a := range arrivals {
		want := time.Duration(2*(i+1)+10) * time.Microsecond
		if a != want {
			t.Fatalf("arrival %d = %v, want %v", i, a, want)
		}
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
	if len(arrivals) != 5 {
		t.Fatalf("%d of 5 packets delivered", len(arrivals))
	}
}

func TestWireZeroTxStillFIFO(t *testing.T) {
	e := New()
	w := NewWire(e, time.Microsecond, 0)
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		w.Send(func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated with zero tx: %v", order)
		}
	}
}

// TestPropRandomEventOrder: events fired in nondecreasing time order no
// matter the insertion order.
func TestPropRandomEventOrder(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		e := New()
		n := 200
		times := make([]time.Duration, n)
		for i := range times {
			times[i] = time.Duration(r.Intn(1000)) * time.Microsecond
		}
		var fired []Time
		for _, at := range times {
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			t.Fatalf("events fired out of order")
		}
		sorted := append([]time.Duration(nil), times...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range fired {
			if fired[i] != sorted[i] {
				t.Fatalf("fired times differ from scheduled")
			}
		}
	}
}

// FuzzEventOrder is the executable spec of the engine's event order. Fuzz
// bytes drive At, DaemonAt and SendFrom from four creators, from outside
// and from inside running events, at the current instant and later; the
// engine must run the events in the order of a container/heap reference
// keyed by (time, creator, that creator's own count of schedulings), under
// Run's rule that daemon events run only while a regular one is pending.
// The engine keys events by one engine-wide count instead: this is what
// says the two orders are the same.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{5, 0, 2, 0, 8, 0, 11, 0, 2, 2, 2, 1, 1, 1, 3, 0, 0})
	f.Add([]byte{2, 0, 1, 0, 0, 0, 5, 0, 2, 11, 1, 2, 8, 0, 2, 5, 0, 2, 2, 0, 1, 4, 3})
	f.Fuzz(func(t *testing.T, prog []byte) {
		e := New()
		got := eventProgram(prog, e.Now, func(kind int, creator int32, at Time, fn func()) {
			switch kind {
			case 0:
				e.At(at, fn)
			case 1:
				e.DaemonAt(at, fn)
			default:
				e.SendFrom(creator, at, fn)
			}
		}, func() { e.Run() })
		ref := &refQueue{ctr: map[int32]uint64{}}
		want := eventProgram(prog, func() Time { return ref.now }, ref.add, ref.run)
		if len(got) != len(want) {
			t.Fatalf("the engine ran %d events, the reference %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("event %d: the engine ran #%d, the reference #%d\nengine    %v\nreference %v", i, got[i], want[i], got, want)
			}
		}
		if e.Now() != ref.now {
			t.Fatalf("clock %v, reference %v", e.Now(), ref.now)
		}
	})
}

// eventProgram replays prog as schedulings through add: kind 0 an external
// regular event, 1 an external daemon, 2 a keyed event of creator c, 0–3
// µs from now. Four come from outside, and each event that runs makes up to
// two more. It returns the events' numbers in the order run ran them.
func eventProgram(prog []byte, now func() Time, add func(kind int, c int32, at Time, fn func()), run func()) []int {
	var order []int
	i, made := 0, 0
	next := func() byte {
		if i == len(prog) {
			return 0
		}
		i++
		return prog[i-1]
	}
	var schedule func()
	schedule = func() {
		if i == len(prog) || made == 1000 {
			return
		}
		b, d := next(), next()
		id := made
		made++
		add(int(b%3), int32(b/3%4), now()+Time(d%4)*time.Microsecond, func() {
			order = append(order, id)
			for k := next() % 3; k > 0; k-- {
				schedule()
			}
		})
	}
	for k := 0; k < 4; k++ {
		schedule()
	}
	run()
	return order
}

// refQueue is the reference engine: refHeap, ordered by (time, creator,
// per-creator sequence), external events under ExtCreator.
type refQueue struct {
	h       refHeap
	ctr     map[int32]uint64
	now     Time
	regular int
}

func (q *refQueue) add(kind int, c int32, at Time, fn func()) {
	if kind < 2 {
		c = ExtCreator
	}
	q.ctr[c]++
	heap.Push(&q.h, &refEvent{at: at, src: c, seq: q.ctr[c], daemon: kind == 1, fn: fn})
	if kind != 1 {
		q.regular++
	}
}

func (q *refQueue) run() {
	for q.regular > 0 {
		ev := heap.Pop(&q.h).(*refEvent)
		q.now = ev.at
		if !ev.daemon {
			q.regular--
		}
		ev.fn()
	}
}
