package sim

import (
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

func TestWireBacklog(t *testing.T) {
	e := New()
	w := NewWire(e, 0, 5*time.Microsecond)
	for i := 0; i < 4; i++ {
		w.Send(func() {})
	}
	if got := w.Backlog(); got != 20*time.Microsecond {
		t.Fatalf("Backlog = %v", got)
	}
	e.Run()
	if got := w.Backlog(); got != 0 {
		t.Fatalf("Backlog after drain = %v", got)
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
