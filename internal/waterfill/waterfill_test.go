package waterfill

import (
	"errors"
	"math/rand"
	"testing"

	"bneck/internal/rate"
)

func mbps(v int64) rate.Rate { return rate.Mbps(v) }

func solveBoth(t *testing.T, in Instance) []rate.Rate {
	t.Helper()
	return checkSolve(t, new(Solver), in)
}

func TestSingleSession(t *testing.T) {
	in := Instance{
		Capacity: []rate.Rate{mbps(10)},
		Sessions: []Session{{Demand: rate.Inf, Path: []int{0}}},
	}
	got := solveBoth(t, in)
	if !got[0].Equal(mbps(10)) {
		t.Fatalf("rate = %v", got[0])
	}
}

func TestDemandRestricts(t *testing.T) {
	in := Instance{
		Capacity: []rate.Rate{mbps(10)},
		Sessions: []Session{{Demand: mbps(4), Path: []int{0}}},
	}
	got := solveBoth(t, in)
	if !got[0].Equal(mbps(4)) {
		t.Fatalf("rate = %v", got[0])
	}
}

func TestEqualShare(t *testing.T) {
	in := Instance{
		Capacity: []rate.Rate{mbps(10)},
		Sessions: []Session{
			{Demand: rate.Inf, Path: []int{0}},
			{Demand: rate.Inf, Path: []int{0}},
			{Demand: rate.Inf, Path: []int{0}},
		},
	}
	got := solveBoth(t, in)
	want := mbps(10).DivInt(3)
	for i, r := range got {
		if !r.Equal(want) {
			t.Fatalf("session %d rate = %v, want %v", i, r, want)
		}
	}
}

// TestClassicChain is the textbook example: s1 on link A (cap 10),
// s2 on links A,B, s3 on link B (cap 4). Max-min: s2=s3=2, s1=8.
func TestClassicChain(t *testing.T) {
	in := Instance{
		Capacity: []rate.Rate{mbps(10), mbps(4)},
		Sessions: []Session{
			{Demand: rate.Inf, Path: []int{0}},
			{Demand: rate.Inf, Path: []int{0, 1}},
			{Demand: rate.Inf, Path: []int{1}},
		},
	}
	got := solveBoth(t, in)
	want := []rate.Rate{mbps(8), mbps(2), mbps(2)}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("session %d rate = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestResidualRedistribution: a session limited by a small demand frees
// capacity for its peers.
func TestResidualRedistribution(t *testing.T) {
	in := Instance{
		Capacity: []rate.Rate{mbps(12)},
		Sessions: []Session{
			{Demand: mbps(2), Path: []int{0}},
			{Demand: rate.Inf, Path: []int{0}},
			{Demand: rate.Inf, Path: []int{0}},
		},
	}
	got := solveBoth(t, in)
	want := []rate.Rate{mbps(2), mbps(5), mbps(5)}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("session %d rate = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestBertsekasGallagerExample: the classic 5-session example from Data
// Networks §6.5.2 structure: a chain of 3 links with crossing sessions.
func TestChainNetwork(t *testing.T) {
	// Links: 0 (cap 10), 1 (cap 10), 2 (cap 10).
	// s0 crosses all three; s1 on link 0; s2 on link 1; s3 on link 1;
	// s4 on link 2.
	in := Instance{
		Capacity: []rate.Rate{mbps(10), mbps(10), mbps(10)},
		Sessions: []Session{
			{Demand: rate.Inf, Path: []int{0, 1, 2}},
			{Demand: rate.Inf, Path: []int{0}},
			{Demand: rate.Inf, Path: []int{1}},
			{Demand: rate.Inf, Path: []int{1}},
			{Demand: rate.Inf, Path: []int{2}},
		},
	}
	got := solveBoth(t, in)
	// Link 1 is the bottleneck for s0, s2, s3: 10/3 each. Then s1 gets
	// 10 - 10/3 = 20/3 on link 0, s4 the same on link 2.
	third := mbps(10).DivInt(3)
	twoThirds := mbps(20).DivInt(3)
	want := []rate.Rate{third, twoThirds, third, third, twoThirds}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("session %d rate = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCascadedBottlenecks(t *testing.T) {
	// Bottlenecks must be discovered in increasing rate order across
	// dependent links.
	in := Instance{
		Capacity: []rate.Rate{mbps(6), mbps(20)},
		Sessions: []Session{
			{Demand: rate.Inf, Path: []int{0, 1}},
			{Demand: rate.Inf, Path: []int{0, 1}},
			{Demand: rate.Inf, Path: []int{1}},
		},
	}
	got := solveBoth(t, in)
	// Link 0: 3 each for s0, s1. Link 1: s2 gets 20-6 = 14.
	want := []rate.Rate{mbps(3), mbps(3), mbps(14)}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("session %d rate = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := Solve(Instance{
		Capacity: []rate.Rate{mbps(1)},
		Sessions: []Session{{Demand: rate.Inf, Path: nil}},
	}); err == nil {
		t.Errorf("expected error for empty path")
	}
	if _, err := Solve(Instance{
		Capacity: []rate.Rate{mbps(1)},
		Sessions: []Session{{Demand: rate.Inf, Path: []int{3}}},
	}); err == nil {
		t.Errorf("expected error for unknown link")
	}
	if _, err := Solve(Instance{
		Capacity: []rate.Rate{mbps(1)},
		Sessions: []Session{{Demand: rate.Zero, Path: []int{0}}},
	}); err == nil {
		t.Errorf("expected error for zero demand")
	}
}

func TestVerifyCatchesWrongRates(t *testing.T) {
	in := Instance{
		Capacity: []rate.Rate{mbps(10)},
		Sessions: []Session{
			{Demand: rate.Inf, Path: []int{0}},
			{Demand: rate.Inf, Path: []int{0}},
		},
	}
	// Oversubscribed.
	if err := Verify(in, []rate.Rate{mbps(6), mbps(6)}); err == nil {
		t.Errorf("Verify accepted oversubscription")
	}
	// Feasible but not maximal.
	if err := Verify(in, []rate.Rate{mbps(4), mbps(4)}); err == nil {
		t.Errorf("Verify accepted non-maximal allocation")
	}
	// Unfair (no bottleneck for the small session).
	if err := Verify(in, []rate.Rate{mbps(3), mbps(7)}); err == nil {
		t.Errorf("Verify accepted unfair allocation")
	}
	// Correct.
	if err := Verify(in, []rate.Rate{mbps(5), mbps(5)}); err != nil {
		t.Errorf("Verify rejected correct allocation: %v", err)
	}
}

// instanceFromBytes decodes an instance from arbitrary bytes; FuzzSolve and
// randomInstance share it. Capacities and demands come from small palettes so
// that the cases progressive filling has to get right are common, not lucky:
// several links at one level, a demand equal to a link's share, paths
// crossing a link twice, thirds and sevenths of numbers wide enough that the
// shares leave rate's int64 path, and unlimited links.
func instanceFromBytes(data []byte) Instance {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	first := next()
	in := Instance{Capacity: make([]rate.Rate, 1+first%10)}
	scale := int64(1)
	if first >= 192 {
		scale = 100_000_000_000_031 // sums of thirds and sevenths of these overflow int64
	}
	for e := range in.Capacity {
		c := next()
		base := int64(1+c%6) * 6000 * scale
		switch c / 6 % 8 {
		case 0, 1, 2:
			in.Capacity[e] = rate.FromInt64(base)
		case 3, 4:
			in.Capacity[e] = rate.FromFrac(base, 3)
		case 5, 6:
			in.Capacity[e] = rate.FromFrac(base, 7)
		case 7:
			in.Capacity[e] = rate.Inf
		}
	}
	for len(data) > 0 && len(in.Sessions) < 24 {
		d := next()
		demand := rate.Inf
		if d%3 == 0 {
			demand = rate.FromFrac(int64(1+d/3%6)*1000*scale, int64(1+d/18%3))
		}
		path := make([]int, 1+next()%5)
		for k := range path {
			path[k] = next() % len(in.Capacity)
		}
		in.Sessions = append(in.Sessions, Session{Demand: demand, Path: path})
	}
	return in
}

// randomInstance builds a random instance over a random set of links.
func randomInstance(r *rand.Rand) Instance {
	data := make([]byte, 4+r.Intn(120))
	r.Read(data)
	return instanceFromBytes(data)
}

// checkSolve asserts what every instance must satisfy: Solve agrees with
// WaterFilling value for value, and the result passes Verify (which encodes
// Definition 1). Solve itself fails if a link ever comes off its heap below
// the level before it, so a nil error is also the monotonicity of levels
// that reading stale keys as lower bounds rests on.
func checkSolve(t *testing.T, sv *Solver, in Instance) []rate.Rate {
	t.Helper()
	a, err := sv.Solve(in)
	if err != nil {
		t.Fatalf("Solve: %v\n%+v", err, in)
	}
	b, err := WaterFilling(in)
	if err != nil {
		t.Fatalf("WaterFilling: %v\n%+v", err, in)
	}
	for s := range a {
		if !a[s].Equal(b[s]) {
			t.Fatalf("session %d: Solve %v != WaterFilling %v\n%+v", s, a[s], b[s], in)
		}
	}
	if err := Verify(in, a); err != nil {
		t.Fatalf("Verify: %v\n%+v", err, in)
	}
	return a
}

// TestPropRandomInstances: on random instances, Solve and WaterFilling agree
// and the result passes Verify, on a fresh Solver and on one reused across
// all of them alike.
func TestPropRandomInstances(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var reused Solver
	for i := 0; i < 2000; i++ {
		in := randomInstance(r)
		a := checkSolve(t, new(Solver), in)
		b := checkSolve(t, &reused, in)
		for s := range a {
			if !a[s].Equal(b[s]) {
				t.Fatalf("iter %d: session %d: fresh Solver %v, reused %v", i, s, a[s], b[s])
			}
		}
	}
}

// FuzzSolve is TestPropRandomInstances over fuzzed bytes; tier-1 replays the
// seed corpus.
func FuzzSolve(f *testing.F) {
	f.Add([]byte{})
	// Two 6000 links, a session on both and one on each: one level, two links.
	f.Add([]byte{1, 0, 0, 1, 1, 0, 1, 1, 0, 0, 1, 0, 1})
	// 18000 over three sessions, one demanding exactly the share.
	f.Add([]byte{0, 2, 15, 0, 0, 1, 0, 0, 1, 0, 0})
	// Two unlimited links and a 6000 one: a session on all three, one on the
	// unlimited pair, one on the second unlimited link alone.
	f.Add([]byte{2, 42, 42, 0, 1, 1, 0, 1, 1, 2, 0, 1, 2, 1, 0, 1})
	// Wide thirds and sevenths, paths with repeats, a finite demand.
	f.Add([]byte{192, 19, 32, 0, 1, 2, 0, 1, 0, 1, 1, 1, 2, 3, 1, 2, 2, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSolve(t, new(Solver), instanceFromBytes(data))
	})
}

// TestPropVerifyRejectsPerturbations: lowering any session below its
// max-min rate must break Verify — i.e. Verify pins the exact allocation —
// and Assembler.CrossCheck, the oracle-exactness check, must accept the
// solver's own rates and report ErrCrossCheck for a session moved either way.
func TestPropVerifyRejectsPerturbations(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		in := randomInstance(r)
		a := Assembler[int]{Capacity: func(l int) rate.Rate { return in.Capacity[l] }}
		for _, s := range in.Sessions {
			a.Add(s.Demand, s.Path)
		}
		rates, err := Solve(in)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		if err := a.CrossCheck(rates); err != nil {
			t.Fatalf("iter %d: CrossCheck rejected the solver's rates: %v", i, err)
		}
		if len(rates) < 2 {
			continue
		}
		j := r.Intn(len(rates))
		if rates[j].IsInf() {
			continue
		}
		perturbed := append([]rate.Rate(nil), rates...)
		delta := rates[j].DivInt(10)
		if delta.IsZero() {
			continue
		}
		perturbed[j] = rates[j].Sub(delta)
		if err := Verify(in, perturbed); err == nil {
			t.Fatalf("iter %d: Verify accepted a lowered session %d", i, j)
		}
		if err := a.CrossCheck(perturbed); !errors.Is(err, ErrCrossCheck) {
			t.Fatalf("iter %d: CrossCheck of a lowered session %d: %v", i, j, err)
		}
		perturbed[j] = rates[j].Add(delta)
		if err := a.CrossCheck(perturbed); !errors.Is(err, ErrCrossCheck) {
			t.Fatalf("iter %d: CrossCheck of a raised session %d: %v", i, j, err)
		}
	}
}

// TestSolveDuplicateLinkPath pins the set semantics of link membership: a
// path crossing the same link twice counts once, exactly like the map-based
// R_e the Solver's flat lists replaced, and agrees with WaterFilling.
func TestSolveDuplicateLinkPath(t *testing.T) {
	in := Instance{
		Capacity: []rate.Rate{rate.Mbps(100), rate.Mbps(80)},
		Sessions: []Session{
			{Demand: rate.Inf, Path: []int{0, 1, 0}},
			{Demand: rate.Inf, Path: []int{1}},
		},
	}
	got, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := WaterFilling(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("session %d: Solve %v, WaterFilling %v", i, got[i], want[i])
		}
	}
	if !got[0].Equal(rate.Mbps(40)) || !got[1].Equal(rate.Mbps(40)) {
		t.Fatalf("rates %v, want both 40mbps (link 1 shared fairly)", got)
	}
}

// TestSolverReuseStable: a reused Solver returns identical results across
// calls with different instance shapes (scratch from a bigger instance must
// not leak into a smaller one).
func TestSolverReuseStable(t *testing.T) {
	var sv Solver
	big := Instance{
		Capacity: []rate.Rate{rate.Mbps(100), rate.Mbps(50), rate.Mbps(30)},
		Sessions: []Session{
			{Demand: rate.Inf, Path: []int{0, 1}},
			{Demand: rate.Mbps(5), Path: []int{1, 2}},
			{Demand: rate.Inf, Path: []int{2}},
			{Demand: rate.Inf, Path: []int{0}},
		},
	}
	small := Instance{
		Capacity: []rate.Rate{rate.Mbps(90)},
		Sessions: []Session{
			{Demand: rate.Inf, Path: []int{0}},
			{Demand: rate.Mbps(10), Path: []int{0}},
		},
	}
	for round := 0; round < 3; round++ {
		for _, in := range []Instance{big, small} {
			checkSolve(t, &sv, in)
		}
	}
	// Shrink, then grow past every size seen so far: each scratch array is
	// reused short, then reallocated, with the previous solve's contents in it.
	r := rand.New(rand.NewSource(17))
	for _, size := range []int{120, 8, 40, 4, 200, 12, 400} {
		data := make([]byte, size)
		r.Read(data)
		checkSolve(t, &sv, instanceFromBytes(data))
	}
}

// TestSolveInfiniteCapacity: graph allows unlimited links. Once a link comes
// off the heap at ∞ nothing restricts what is left, and crediting ∞ to the
// other links of its members would make their next share ∞ − ∞.
func TestSolveInfiniteCapacity(t *testing.T) {
	in := Instance{
		Capacity: []rate.Rate{rate.Inf, rate.Inf, mbps(10)},
		Sessions: []Session{
			{Demand: rate.Inf, Path: []int{0, 1}},
			{Demand: rate.Inf, Path: []int{0, 1, 2}},
		},
	}
	got := solveBoth(t, in)
	if !got[0].IsInf() || !got[1].Equal(mbps(10)) {
		t.Fatalf("rates %v, want [inf 10mbps]", got)
	}
	// A third session on the second unlimited link alone: that link outlives
	// the first one's members.
	in.Sessions = append(in.Sessions, Session{Demand: rate.Inf, Path: []int{1}})
	got = solveBoth(t, in)
	if !got[0].IsInf() || !got[1].Equal(mbps(10)) || !got[2].IsInf() {
		t.Fatalf("rates %v, want [inf 10mbps inf]", got)
	}
}
