package waterfill

import (
	"math/rand"
	"testing"

	"bneck/internal/rate"
)

func TestBottlenecksClassicChain(t *testing.T) {
	in := Instance{
		Capacity: []rate.Rate{mbps(10), mbps(4)},
		Sessions: []Session{
			{Demand: rate.Inf, Path: []int{0}},
			{Demand: rate.Inf, Path: []int{0, 1}},
			{Demand: rate.Inf, Path: []int{1}},
		},
	}
	rates, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	bn := Bottlenecks(in, rates)
	// s0 (8 Mbps) is restricted at link 0; s1 and s2 (2 Mbps) at link 1.
	if len(bn[0]) != 1 || bn[0][0] != 0 {
		t.Fatalf("s0 bottlenecks = %v", bn[0])
	}
	if len(bn[1]) != 1 || bn[1][0] != 1 {
		t.Fatalf("s1 bottlenecks = %v", bn[1])
	}
	if len(bn[2]) != 1 || bn[2][0] != 1 {
		t.Fatalf("s2 bottlenecks = %v", bn[2])
	}
}

func TestBottlenecksDemandLimited(t *testing.T) {
	in := Instance{
		Capacity: []rate.Rate{mbps(10)},
		Sessions: []Session{{Demand: mbps(2), Path: []int{0}}},
	}
	rates, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	bn := Bottlenecks(in, rates)
	if len(bn[0]) != 0 {
		t.Fatalf("demand-limited session has link bottlenecks: %v", bn[0])
	}
}

// TestPropEverySessionRestricted: on random instances, every session is
// either demand-limited or has at least one bottleneck link — the max-min
// characterization the paper states after Definition 1.
func TestPropEverySessionRestricted(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 300; i++ {
		in := randomInstance(r)
		rates, err := Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		bn := Bottlenecks(in, rates)
		for s := range in.Sessions {
			if rates[s].Equal(in.Sessions[s].Demand) {
				continue
			}
			if len(bn[s]) == 0 {
				t.Fatalf("iter %d: session %d (rate %v < demand %v) has no bottleneck",
					i, s, rates[s], in.Sessions[s].Demand)
			}
		}
	}
}
