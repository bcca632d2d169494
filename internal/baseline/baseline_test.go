package baseline

import (
	"math"
	"testing"
	"time"

	"bneck/internal/core"
	"bneck/internal/graph"
	"bneck/internal/rate"
	"bneck/internal/sim"
)

// buildShared returns a graph where nSess host pairs share one middle link
// of the given capacity, and the session paths.
func buildShared(t *testing.T, nSess int, mid rate.Rate) (*graph.Graph, []graph.Path) {
	t.Helper()
	g := graph.New()
	r1 := g.AddRouter("r1")
	r2 := g.AddRouter("r2")
	g.Connect(r1, r2, mid, time.Microsecond)
	res := graph.NewResolver(g, 16)
	paths := make([]graph.Path, nSess)
	for i := range paths {
		ha := g.AddHost("ha")
		hb := g.AddHost("hb")
		g.Connect(ha, r1, rate.Mbps(1000), time.Microsecond)
		g.Connect(hb, r2, rate.Mbps(1000), time.Microsecond)
		p, err := graph.NewResolver(g, 16).HostPath(ha, hb)
		if err != nil {
			t.Fatal(err)
		}
		paths[i] = p
	}
	_ = res
	return g, paths
}

func runProtocol(t *testing.T, proto Protocol, nSess int, horizon time.Duration) (*Harness, []*Session) {
	t.Helper()
	g, paths := buildShared(t, nSess, rate.Mbps(100))
	eng := sim.New()
	h := NewHarness(g, eng, proto, Config{Seed: 1})
	sessions := make([]*Session, nSess)
	for i, p := range paths {
		s, err := h.NewSession(p, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
		h.ScheduleJoin(s, time.Duration(i)*10*time.Microsecond)
	}
	h.StartTicks()
	h.StopProbing(horizon)
	eng.RunUntil(horizon)
	return h, sessions
}

func TestBFYZConvergesToFairShare(t *testing.T) {
	const n = 4
	_, sessions := runProtocol(t, BFYZ{}, n, 200*time.Millisecond)
	want := 100e6 / float64(n)
	for i, s := range sessions {
		if math.Abs(s.Rate()-want)/want > 0.01 {
			t.Fatalf("session %d rate %.0f, want ~%.0f", i, s.Rate(), want)
		}
	}
}

func TestBFYZOverestimatesTransiently(t *testing.T) {
	// The first session to probe alone sees the whole link: its estimate
	// starts above the final fair share — the Figure 7 overshoot.
	g, paths := buildShared(t, 2, rate.Mbps(100))
	eng := sim.New()
	h := NewHarness(g, eng, BFYZ{}, Config{Seed: 1})
	s1, _ := h.NewSession(paths[0], math.Inf(1))
	s2, _ := h.NewSession(paths[1], math.Inf(1))
	h.ScheduleJoin(s1, 0)
	h.ScheduleJoin(s2, 0)
	h.StartTicks()
	h.StopProbing(100 * time.Millisecond)
	overshoot := false
	for i := 1; i <= 100; i++ {
		eng.RunUntil(time.Duration(i) * time.Millisecond)
		if s1.Rate() > 51e6 || s2.Rate() > 51e6 {
			overshoot = true
		}
	}
	if !overshoot {
		t.Fatalf("BFYZ never overestimated (expected optimistic transients)")
	}
	if math.Abs(s1.Rate()-50e6) > 1e6 || math.Abs(s2.Rate()-50e6) > 1e6 {
		t.Fatalf("BFYZ did not settle at 50 Mbps: %.0f / %.0f", s1.Rate(), s2.Rate())
	}
}

func TestBFYZNeverQuiesces(t *testing.T) {
	h, _ := runProtocol(t, BFYZ{}, 3, 100*time.Millisecond)
	bins := h.Stats().Bins()
	if len(bins) < 10 {
		t.Fatalf("too few bins: %d", len(bins))
	}
	// Every window of 3 bins (9 ms ≥ the 5 ms probe period) after warm-up
	// must contain traffic: the protocol never quiesces.
	for i := 2; i+3 <= len(bins)-1; i++ {
		if bins[i].Total+bins[i+1].Total+bins[i+2].Total == 0 {
			t.Fatalf("BFYZ silent from %v — protocols here must not quiesce", bins[i].Start)
		}
	}
}

func TestBFYZLeaveFreesCapacity(t *testing.T) {
	g, paths := buildShared(t, 2, rate.Mbps(100))
	eng := sim.New()
	h := NewHarness(g, eng, BFYZ{}, Config{Seed: 1})
	s1, _ := h.NewSession(paths[0], math.Inf(1))
	s2, _ := h.NewSession(paths[1], math.Inf(1))
	h.ScheduleJoin(s1, 0)
	h.ScheduleJoin(s2, 0)
	h.StartTicks()
	h.StopProbing(300 * time.Millisecond)
	eng.RunUntil(100 * time.Millisecond)
	h.ScheduleLeave(s1, eng.Now())
	eng.RunUntil(300 * time.Millisecond)
	if math.Abs(s2.Rate()-100e6) > 2e6 {
		t.Fatalf("s2 rate after leave = %.0f, want ~100e6", s2.Rate())
	}
}

func TestBFYZRespectsDemand(t *testing.T) {
	g, paths := buildShared(t, 2, rate.Mbps(100))
	eng := sim.New()
	h := NewHarness(g, eng, BFYZ{}, Config{Seed: 1})
	s1, _ := h.NewSession(paths[0], 10e6)
	s2, _ := h.NewSession(paths[1], math.Inf(1))
	h.ScheduleJoin(s1, 0)
	h.ScheduleJoin(s2, 0)
	h.StartTicks()
	h.StopProbing(200 * time.Millisecond)
	eng.RunUntil(200 * time.Millisecond)
	if s1.Rate() > 10e6+1 {
		t.Fatalf("s1 exceeded demand: %.0f", s1.Rate())
	}
	if math.Abs(s2.Rate()-90e6)/90e6 > 0.02 {
		t.Fatalf("s2 rate = %.0f, want ~90e6", s2.Rate())
	}
}

func TestCGApproachesFairShare(t *testing.T) {
	const n = 4
	_, sessions := runProtocol(t, CG{}, n, 500*time.Millisecond)
	want := 100e6 / float64(n)
	for i, s := range sessions {
		if math.Abs(s.Rate()-want)/want > 0.25 {
			t.Fatalf("session %d rate %.0f, want within 25%% of %.0f (CG is approximate)",
				i, s.Rate(), want)
		}
	}
}

func TestRCPApproachesFairShare(t *testing.T) {
	const n = 4
	_, sessions := runProtocol(t, RCP{}, n, 500*time.Millisecond)
	want := 100e6 / float64(n)
	for i, s := range sessions {
		if math.Abs(s.Rate()-want)/want > 0.25 {
			t.Fatalf("session %d rate %.0f, want within 25%% of %.0f (RCP is approximate)",
				i, s.Rate(), want)
		}
	}
}

func TestBFYZMarkingFixpoint(t *testing.T) {
	l := BFYZ{}.NewLink(100).(*bfyzLink)
	// Three sessions: one pinned low elsewhere (rate 10), two unbounded.
	l.Reverse(core.SessionID(1), 10)
	l.Reverse(core.SessionID(2), 60)
	l.Reverse(core.SessionID(3), 60)
	// Consistent marking: session 1 marked (10 < adv), adv = (100-10)/2 = 45.
	if got := l.advertised(); math.Abs(got-45) > 1e-9 {
		t.Fatalf("advertised = %v, want 45", got)
	}
	// Both sessions slow: the best offer treats the other as restricted
	// elsewhere, adv = (100-5)/1 = 95.
	l2 := BFYZ{}.NewLink(100).(*bfyzLink)
	l2.Reverse(core.SessionID(1), 5)
	l2.Reverse(core.SessionID(2), 5)
	if got := l2.advertised(); math.Abs(got-95) > 1e-9 {
		t.Fatalf("advertised = %v, want 95", got)
	}
	// Empty link advertises full capacity.
	l3 := BFYZ{}.NewLink(100).(*bfyzLink)
	if got := l3.advertised(); got != 100 {
		t.Fatalf("empty advertised = %v", got)
	}
}

func TestHarnessDeterminism(t *testing.T) {
	run := func() (uint64, []float64) {
		g, paths := buildShared(t, 3, rate.Mbps(100))
		eng := sim.New()
		h := NewHarness(g, eng, BFYZ{}, Config{Seed: 1})
		var ss []*Session
		for _, p := range paths {
			s, _ := h.NewSession(p, math.Inf(1))
			ss = append(ss, s)
			h.ScheduleJoin(s, 0)
		}
		h.StartTicks()
		h.StopProbing(50 * time.Millisecond)
		eng.RunUntil(50 * time.Millisecond)
		var rates []float64
		for _, s := range ss {
			rates = append(rates, s.Rate())
		}
		return h.Stats().Total(), rates
	}
	p1, r1 := run()
	p2, r2 := run()
	if p1 != p2 {
		t.Fatalf("packet counts differ: %d vs %d", p1, p2)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("rates differ at %d", i)
		}
	}
}
