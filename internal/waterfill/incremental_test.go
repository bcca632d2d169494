package waterfill_test

// Equivalence tests for the deprecated Incremental: after every batch of
// deltas its rates must be byte-identical (rate.Key equality — rates are
// canonical rationals) to a fresh Solve of the same live instance. The churn
// harness drives it the way its one remaining caller does: links are added
// the first time a path crosses them, capacity changes reach only links it
// knows, and a failure is seen only as the crossing sessions leaving and
// rejoining on a fresh path.

import (
	"math/rand"
	"testing"

	"bneck/internal/graph"
	"bneck/internal/rate"
	"bneck/internal/topology"
	"bneck/internal/waterfill"
)

// harnessSession is one live session of the churn harness: its handle plus
// everything needed to rebuild the shadow instance and to re-route after
// failures.
type harnessSession struct {
	h        int
	src, dst graph.NodeID
	demand   rate.Rate
	path     graph.Path
}

type churnHarness struct {
	t      testing.TB
	g      *graph.Graph
	res    *graph.Resolver
	inc    *waterfill.Incremental
	linkOf map[graph.LinkID]int // graph link -> handle, added on first use
	live   []harnessSession
	rng    *rand.Rand
	hosts  []graph.NodeID
}

func newChurnHarness(t testing.TB, params topology.InternetParams, hosts int, seed int64) *churnHarness {
	net, err := topology.GenerateInternet(params, seed)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	h := &churnHarness{
		t:      t,
		g:      net.Graph,
		res:    graph.NewResolver(net.Graph, 128),
		inc:    waterfill.NewIncremental(),
		linkOf: make(map[graph.LinkID]int),
		rng:    rand.New(rand.NewSource(seed + 1)),
	}
	h.hosts = net.AddHosts(hosts)
	return h
}

func (h *churnHarness) join(src, dst graph.NodeID, demand rate.Rate) {
	p, err := h.res.HostPath(src, dst)
	if err != nil {
		return
	}
	handles := make([]int, len(p))
	for i, l := range p {
		k, ok := h.linkOf[l]
		if !ok {
			k = h.inc.AddLink(h.g.Link(l).Capacity)
			h.linkOf[l] = k
		}
		handles[i] = k
	}
	hd := h.inc.SessionJoin(demand, handles)
	h.live = append(h.live, harnessSession{h: hd, src: src, dst: dst, demand: demand, path: p})
}

func (h *churnHarness) joinRandom() {
	i := h.rng.Intn(len(h.hosts))
	j := h.rng.Intn(len(h.hosts))
	if i == j {
		return
	}
	demand := rate.Inf
	if h.rng.Intn(2) == 0 {
		demand = rate.FromFrac(int64(1+h.rng.Intn(400)), int64(1+h.rng.Intn(5)))
	}
	h.join(h.hosts[i], h.hosts[j], demand)
}

func (h *churnHarness) leaveAt(i int) {
	h.inc.SessionLeave(h.live[i].h)
	h.live[i] = h.live[len(h.live)-1]
	h.live = h.live[:len(h.live)-1]
}

func (h *churnHarness) leaveRandom() {
	if len(h.live) == 0 {
		return
	}
	h.leaveAt(h.rng.Intn(len(h.live)))
}

func (h *churnHarness) setCapRandom() {
	l := graph.LinkID(h.rng.Intn(h.g.NumLinks()))
	c := rate.FromFrac(int64(1+h.rng.Intn(2000)), int64(1+h.rng.Intn(3)))
	h.g.SetCapacity(l, c)
	if k, ok := h.linkOf[l]; ok {
		h.inc.SetCapacity(k, c)
	}
}

// failRandom fails one link the way the network layer does: crossing
// sessions depart, the link goes down, then each departed session rejoins on
// a fresh shortest path (or stays out if none exists).
func (h *churnHarness) failRandom() {
	l := graph.LinkID(h.rng.Intn(h.g.NumLinks()))
	if !h.g.LinkUp(l) {
		return
	}
	var crossing []harnessSession
	for i := len(h.live) - 1; i >= 0; i-- {
		for _, e := range h.live[i].path {
			if e == l {
				crossing = append(crossing, h.live[i])
				h.leaveAt(i)
				break
			}
		}
	}
	h.g.FailLink(l)
	for _, s := range crossing {
		h.join(s.src, s.dst, s.demand)
	}
}

func (h *churnHarness) restoreRandom() {
	// Scan a few random links for a failed one; restores are rarer than
	// fails anyway.
	for try := 0; try < 8; try++ {
		if l := graph.LinkID(h.rng.Intn(h.g.NumLinks())); !h.g.LinkUp(l) {
			h.g.RestoreLink(l)
			return
		}
	}
}

func (h *churnHarness) step() {
	switch h.rng.Intn(10) {
	case 0, 1, 2:
		h.joinRandom()
	case 3, 4:
		h.leaveRandom()
	case 5, 6:
		h.setCapRandom()
	case 7, 8:
		h.failRandom()
	case 9:
		h.restoreRandom()
	}
}

// shadowSolve rebuilds the live instance from scratch and solves it with a
// fresh Solver.
func (h *churnHarness) shadowSolve() []rate.Rate {
	idx := make(map[graph.LinkID]int)
	var in waterfill.Instance
	for _, s := range h.live {
		path := make([]int, 0, len(s.path))
		for _, l := range s.path {
			i, ok := idx[l]
			if !ok {
				i = len(in.Capacity)
				idx[l] = i
				in.Capacity = append(in.Capacity, h.g.Link(l).Capacity)
			}
			path = append(path, i)
		}
		in.Sessions = append(in.Sessions, waterfill.Session{Demand: s.demand, Path: path})
	}
	rates, err := waterfill.Solve(in)
	if err != nil {
		h.t.Fatalf("shadow solve: %v", err)
	}
	return rates
}

// checkEquivalence asserts every live session's rate is byte-identical to
// the shadow solve.
func (h *churnHarness) checkEquivalence(step int) {
	if err := h.inc.Flush(); err != nil {
		h.t.Fatalf("step %d: flush: %v", step, err)
	}
	want := h.shadowSolve()
	for i, s := range h.live {
		if got := h.inc.Rate(s.h); got.Key() != want[i].Key() {
			h.t.Fatalf("step %d: session %d (%d->%d): incremental %s, full %s",
				step, s.h, s.src, s.dst, got.Key(), want[i].Key())
		}
	}
}

func runChurn(t testing.TB, params topology.InternetParams, hosts, warm, steps int, seed int64) {
	h := newChurnHarness(t, params, hosts, seed)
	for i := 0; i < warm; i++ {
		h.joinRandom()
	}
	h.checkEquivalence(-1)
	for i := 0; i < steps; i++ {
		h.step()
		// Occasionally batch a second delta into the same flush.
		if h.rng.Intn(4) == 0 {
			h.step()
		}
		h.checkEquivalence(i)
	}
}

func TestIncrementalChurnEquivalencePaper(t *testing.T) {
	runChurn(t, topology.InternetPaper, 48, 40, 160, 1)
}

// FuzzIncrementalEquivalence drives the same churn harness from a fuzzed
// (seed, steps) pair on the Paper rung.
func FuzzIncrementalEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(50))
	f.Add(int64(7), uint8(3), uint8(90))
	f.Add(int64(42), uint8(80), uint8(20))
	f.Fuzz(func(t *testing.T, seed int64, warm, steps uint8) {
		runChurn(t, topology.InternetPaper, 32, int(warm)%64, int(steps)%64, seed)
	})
}

// TestIncrementalFrozenCascade is a known-answer case in which one leave
// moves every other rate: freed capacity at e raises its remaining sessions
// until a second link f saturates, which pulls f's other crosser down and
// lets that crosser's neighbour at a third link h rise.
func TestIncrementalFrozenCascade(t *testing.T) {
	inc := waterfill.NewIncremental()
	e := inc.AddLink(rate.FromInt64(2))
	f := inc.AddLink(rate.FromFrac(9, 2)) // 4.5
	h := inc.AddLink(rate.FromInt64(6))
	sA := inc.SessionJoin(rate.Inf, []int{e})    // leaves later
	sU := inc.SessionJoin(rate.Inf, []int{e, f}) // rises, then capped at f
	sX := inc.SessionJoin(rate.Inf, []int{e, f}) // rises with it
	sV := inc.SessionJoin(rate.Inf, []int{f, h}) // pulled down at f
	sW := inc.SessionJoin(rate.Inf, []int{h})    // rises when v drops
	if err := inc.Flush(); err != nil {
		t.Fatal(err)
	}
	// Initial: e shares 2 across {a,u,x} → 2/3 each; f: 3 + 4/3 < 4.5 slack;
	// h: v=w=3.
	for _, want := range []struct {
		h int
		r string
	}{{sA, "2/3"}, {sU, "2/3"}, {sX, "2/3"}, {sV, "3"}, {sW, "3"}} {
		if got := inc.Rate(want.h).Key(); got != want.r {
			t.Fatalf("initial rate of %d: got %s, want %s", want.h, got, want.r)
		}
	}
	inc.SessionLeave(sA)
	if err := inc.Flush(); err != nil {
		t.Fatal(err)
	}
	// After the leave: u,x = 1 (e tight), v = 2.5 (f tight), w = 3.5.
	for _, want := range []struct {
		h int
		r string
	}{{sU, "1"}, {sX, "1"}, {sV, "5/2"}, {sW, "7/2"}} {
		if got := inc.Rate(want.h).Key(); got != want.r {
			t.Fatalf("post-leave rate of %d: got %s, want %s", want.h, got, want.r)
		}
	}
}
