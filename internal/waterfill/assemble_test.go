package waterfill

import (
	"math/rand"
	"testing"

	"bneck/internal/rate"
)

// TestAssemblerMatchesDirect: across instances that shrink, grow and use
// different sparse link ids on one Assembler, its rates equal a one-shot
// Solve of the same sessions indexed by hand — no link index, capacity or
// path survives a Reset. Capacities change between instances, as a
// transport's do.
func TestAssemblerMatchesDirect(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	capacity := make([]rate.Rate, 500)
	a := Assembler[int]{Capacity: func(l int) rate.Rate { return capacity[l] }}
	for _, sessions := range []int{30, 3, 0, 60, 1, 200} {
		for l := range capacity {
			capacity[l] = rate.FromFrac(int64(1+r.Intn(50))*6000, int64(1+r.Intn(3)))
		}
		a.Reset()
		var want Instance
		index := map[int]int{}
		for s := 0; s < sessions; s++ {
			demand := rate.Inf
			if r.Intn(3) == 0 {
				demand = rate.FromInt64(int64(1+r.Intn(20)) * 1000)
			}
			path := make([]int, 1+r.Intn(6))
			ws := Session{Demand: demand}
			for k := range path {
				path[k] = r.Intn(len(capacity)) / (1 + r.Intn(40)) // crowd the low ids, repeat some
				i, ok := index[path[k]]
				if !ok {
					i = len(want.Capacity)
					index[path[k]] = i
					want.Capacity = append(want.Capacity, capacity[path[k]])
				}
				ws.Path = append(ws.Path, i)
			}
			want.Sessions = append(want.Sessions, ws)
			a.Add(demand, path)
		}
		got, err := a.Solve()
		if err != nil {
			t.Fatal(err)
		}
		direct := checkSolve(t, new(Solver), want)
		if len(got) != len(direct) {
			t.Fatalf("%d sessions: %d rates", sessions, len(got))
		}
		for s := range got {
			if !got[s].Equal(direct[s]) {
				t.Fatalf("%d sessions: session %d: assembled %v, direct %v", sessions, s, got[s], direct[s])
			}
		}
	}
}
