package exp

import (
	"math/rand"
	"testing"
	"time"

	"bneck/internal/rate"
)

func TestDrawsSortedAndWindowed(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	evs := draws("join", span(5, 100), time.Millisecond, unbounded, r)
	if len(evs) != 100 {
		t.Fatalf("len = %d", len(evs))
	}
	seen := make(map[int]bool)
	for i, e := range evs {
		if e.op != "join" {
			t.Fatalf("op = %q", e.op)
		}
		if e.at < 0 || e.at >= time.Millisecond {
			t.Fatalf("event %d outside window: %v", i, e.at)
		}
		if i > 0 && evs[i-1].at > e.at {
			t.Fatalf("not sorted at %d", i)
		}
		if !e.demand.IsInf() {
			t.Fatalf("unbounded demand expected")
		}
		seen[e.session] = true
	}
	for s := 5; s < 105; s++ {
		if !seen[s] {
			t.Fatalf("session %d missing", s)
		}
	}
}

// TestDrawsOrder pins the RNG order the generated scripts depend on: each
// session's offset, then its demand for a join or a change and nothing for
// a leave, then a stable sort on the offset.
func TestDrawsOrder(t *testing.T) {
	demand := MixedDemands(0.5, 1, 100)
	for _, op := range []string{"join", "leave", "change"} {
		r, want := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
		evs := draws(op, []int{3, 1, 2}, time.Millisecond, demand, r)
		type draw struct {
			at     time.Duration
			demand rate.Rate
		}
		bySession := make(map[int]draw)
		for _, s := range []int{3, 1, 2} {
			d := draw{at: time.Duration(want.Int63n(int64(time.Millisecond)))}
			if op != "leave" {
				d.demand = demand(want)
			}
			bySession[s] = d
		}
		if r.Int63() != want.Int63() {
			t.Fatalf("%s: draws consumed a different number of draws", op)
		}
		for i, e := range evs {
			d := bySession[e.session]
			if e.op != op || e.at != d.at || !e.demand.Equal(d.demand) {
				t.Fatalf("%s: event %d = %+v, want %+v", op, i, e, d)
			}
			if i > 0 && evs[i-1].at > e.at {
				t.Fatalf("%s: not sorted at %d", op, i)
			}
		}
	}
}

func TestDrawsDeterministic(t *testing.T) {
	a := draws("join", span(0, 100), time.Millisecond, MixedDemands(0.3, 1, 100), rand.New(rand.NewSource(9)))
	b := draws("join", span(0, 100), time.Millisecond, MixedDemands(0.3, 1, 100), rand.New(rand.NewSource(9)))
	for i := range a {
		if a[i].at != b[i].at || a[i].session != b[i].session || !a[i].demand.Equal(b[i].demand) {
			t.Fatalf("nondeterministic at %d", i)
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

func TestSample(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pop := []int{10, 20, 30, 40, 50}
	s := sample(pop, 3, r)
	if len(s) != 3 {
		t.Fatalf("sample = %v", s)
	}
	seen := make(map[int]bool)
	for i, v := range s {
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		if i > 0 && s[i-1] > v {
			t.Fatalf("sample %v not sorted", s)
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
	sample([]int{1}, 2, rand.New(rand.NewSource(1)))
}
