package live

import (
	"testing"
	"time"

	"bneck/internal/graph"
	"bneck/internal/policy"
	"bneck/internal/rate"
)

// buildDiamond is the live twin of the simulator transport's re-optimization
// fixture: a direct r1–r2 link and an r1–r3–r2 detour, one session ha → hb.
func buildDiamond(t *testing.T) (*graph.Graph, graph.LinkID, graph.Path) {
	t.Helper()
	g := graph.New()
	r1, r2, r3 := g.AddRouter("r1"), g.AddRouter("r2"), g.AddRouter("r3")
	ab, _ := g.Connect(r1, r2, rate.Mbps(80), time.Microsecond)
	g.Connect(r1, r3, rate.Mbps(40), time.Microsecond)
	g.Connect(r3, r2, rate.Mbps(40), time.Microsecond)
	ha, hb := g.AddHost("ha"), g.AddHost("hb")
	g.Connect(ha, r1, rate.Mbps(100), time.Microsecond)
	g.Connect(hb, r2, rate.Mbps(100), time.Microsecond)
	p, err := graph.NewResolver(g, 16).HostPath(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	return g, ab, p
}

func liveFailRestore(t *testing.T, rt *Runtime, s *Session, g *graph.Graph, ab graph.LinkID) {
	t.Helper()
	rev := g.Link(ab).Reverse
	s.Join(rate.Inf)
	rt.WaitQuiescent()
	if err := rt.Validate(); err != nil {
		t.Fatalf("after join: %v", err)
	}
	if got := len(s.Path()); got != 3 {
		t.Fatalf("joined on %d hops, want 3", got)
	}
	rt.FailLinks(ab, rev)
	rt.WaitQuiescent()
	if err := rt.Validate(); err != nil {
		t.Fatalf("after fail: %v", err)
	}
	if got := len(s.Path()); got != 4 {
		t.Fatalf("migrated onto %d hops, want the 4-hop detour", got)
	}
	rt.RestoreLinks(ab, rev)
	rt.WaitQuiescent()
	if err := rt.Validate(); err != nil {
		t.Fatalf("after restore: %v", err)
	}
}

func TestLivePinnedKeepsDetourAfterRestore(t *testing.T) {
	g, ab, p := buildDiamond(t)
	rt := New(g)
	defer rt.Close()
	s, err := rt.NewSession(p)
	if err != nil {
		t.Fatal(err)
	}
	liveFailRestore(t, rt, s, g, ab)
	if got := len(s.Path()); got != 4 {
		t.Fatalf("pinned session on %d hops; must stay on the detour", got)
	}
	if rt.Reoptimizations() != 0 {
		t.Fatalf("reoptimizations = %d under Pinned", rt.Reoptimizations())
	}
	if r, _ := s.Rate(); !r.Equal(rate.Mbps(40)) {
		t.Fatalf("pinned rate = %v, want the 40 Mbps detour bottleneck", r)
	}
}

func TestLiveReoptimizeOnRestore(t *testing.T) {
	g, ab, p := buildDiamond(t)
	rt := New(g)
	defer rt.Close()
	rt.SetPathPolicy(policy.Config{Kind: policy.ReoptimizeOnRestore})
	s, err := rt.NewSession(p)
	if err != nil {
		t.Fatal(err)
	}
	liveFailRestore(t, rt, s, g, ab)
	if got := len(s.Path()); got != 3 {
		t.Fatalf("session on %d hops after restore, want 3", got)
	}
	if rt.Reoptimizations() != 1 {
		t.Fatalf("reoptimizations = %d, want 1", rt.Reoptimizations())
	}
	if rt.Migrations() != 1 {
		t.Fatalf("migrations = %d, want 1 (reoptimizations are separate)", rt.Migrations())
	}
	if r, _ := s.Rate(); !r.Equal(rate.Mbps(80)) {
		t.Fatalf("rate = %v, want the 80 Mbps direct bottleneck", r)
	}
	if rt.ReconfigPackets() == 0 {
		t.Fatal("reconfiguration cost no packets")
	}
}

func TestLiveStretchHysteresisAndCapacityBypass(t *testing.T) {
	g, ab, p := buildDiamond(t)
	rt := New(g)
	defer rt.Close()
	rt.SetPathPolicy(policy.Config{Kind: policy.ReoptimizeOnRestore, Stretch: 1.5})
	s, err := rt.NewSession(p)
	if err != nil {
		t.Fatal(err)
	}
	liveFailRestore(t, rt, s, g, ab)
	if got := len(s.Path()); got != 4 {
		t.Fatalf("session on %d hops; 4/3 is within stretch 1.5, must stay", got)
	}
	// Doubling the direct link's capacity waives the hysteresis.
	rev := g.Link(ab).Reverse
	rt.SetLinkCapacity(rate.Mbps(160), ab, rev)
	rt.WaitQuiescent()
	if err := rt.Validate(); err != nil {
		t.Fatalf("after upgrade: %v", err)
	}
	if got := len(s.Path()); got != 3 {
		t.Fatalf("post-upgrade: session on %d hops, want 3", got)
	}
	if rt.Reoptimizations() != 1 {
		t.Fatalf("reoptimizations = %d, want 1", rt.Reoptimizations())
	}
	if r, _ := s.Rate(); !r.Equal(rate.Mbps(100)) {
		t.Fatalf("rate = %v, want the 100 Mbps access bottleneck", r)
	}
}

// TestLiveReconfigPacketsUserChurnFree: plain joins/leaves never count as
// reconfiguration traffic, and per-incarnation counters stay consistent.
func TestLiveReconfigPacketsUserChurnFree(t *testing.T) {
	g, _, p := buildDiamond(t)
	rt := New(g)
	defer rt.Close()
	s, err := rt.NewSession(p)
	if err != nil {
		t.Fatal(err)
	}
	s.Join(rate.Inf)
	rt.WaitQuiescent()
	if rt.incarnationFor(s.ID()).pkts.Load() == 0 {
		t.Fatal("join cascade left no per-incarnation packet count")
	}
	s.Leave()
	rt.WaitQuiescent()
	if rt.ReconfigPackets() != 0 {
		t.Fatalf("user churn counted %d reconfiguration packets", rt.ReconfigPackets())
	}
}
