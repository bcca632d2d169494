package trace

import (
	"math/rand"
	"testing"
	"time"

	"bneck/internal/rate"
)

func TestJoinsSortedAndWindowed(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	start, window := 10*time.Millisecond, time.Millisecond
	evs := Joins(5, 100, start, window, Unbounded, r)
	if len(evs) != 100 {
		t.Fatalf("len = %d", len(evs))
	}
	seen := make(map[int]bool)
	for i, e := range evs {
		if e.Kind != Join {
			t.Fatalf("kind = %v", e.Kind)
		}
		if e.At < start || e.At >= start+window {
			t.Fatalf("event %d outside window: %v", i, e.At)
		}
		if i > 0 && evs[i-1].At > e.At {
			t.Fatalf("not sorted at %d", i)
		}
		if !e.Demand.IsInf() {
			t.Fatalf("unbounded demand expected")
		}
		seen[e.Session] = true
	}
	for s := 5; s < 105; s++ {
		if !seen[s] {
			t.Fatalf("session %d missing", s)
		}
	}
}

func TestMixedDemands(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	fn := MixedDemands(0.5, 10, 20)
	finite, inf := 0, 0
	for i := 0; i < 1000; i++ {
		d := fn(r)
		if d.IsInf() {
			inf++
			continue
		}
		finite++
		if d.Less(rate.Mbps(10)) || d.Greater(rate.Mbps(20)) {
			t.Fatalf("demand %v outside [10,20] Mbps", d)
		}
	}
	if finite < 400 || inf < 400 {
		t.Fatalf("suspicious split: %d finite, %d inf", finite, inf)
	}
}

func TestLeavesAndChanges(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ls := Leaves([]int{3, 1, 2}, 0, time.Millisecond, r)
	if len(ls) != 3 {
		t.Fatalf("leaves = %d", len(ls))
	}
	cs := Changes([]int{7, 8}, time.Millisecond, time.Millisecond, Unbounded, r)
	for _, e := range cs {
		if e.Kind != Change || !e.Demand.IsInf() {
			t.Fatalf("bad change event %+v", e)
		}
		if e.At < time.Millisecond || e.At >= 2*time.Millisecond {
			t.Fatalf("change outside window: %v", e.At)
		}
	}
}

func TestSample(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pop := []int{10, 20, 30, 40, 50}
	s := Sample(pop, 3, r)
	if len(s) != 3 {
		t.Fatalf("sample = %v", s)
	}
	seen := make(map[int]bool)
	for _, v := range s {
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
		found := false
		for _, p := range pop {
			if p == v {
				found = true
			}
		}
		if !found {
			t.Fatalf("%d not in population", v)
		}
	}
}

func TestSamplePanicsWhenTooLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	Sample([]int{1}, 2, rand.New(rand.NewSource(1)))
}

func TestZeroWindow(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	evs := Joins(0, 5, time.Millisecond, 0, Unbounded, r)
	for _, e := range evs {
		if e.At != time.Millisecond {
			t.Fatalf("zero window event at %v", e.At)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := Joins(0, 100, 0, time.Millisecond, MixedDemands(0.3, 1, 100), rand.New(rand.NewSource(9)))
	b := Joins(0, 100, 0, time.Millisecond, MixedDemands(0.3, 1, 100), rand.New(rand.NewSource(9)))
	for i := range a {
		if a[i].At != b[i].At || a[i].Session != b[i].Session || !a[i].Demand.Equal(b[i].Demand) {
			t.Fatalf("nondeterministic at %d", i)
		}
	}
}
