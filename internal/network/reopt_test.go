package network

import (
	"testing"
	"time"

	"bneck/internal/control"
	"bneck/internal/graph"
	"bneck/internal/rate"
	"bneck/internal/sim"
)

// diamond builds the canonical re-optimization topology: a direct r1–r2
// link (the shortest path) and an r1–r3–r2 detour, with one session
// ha → hb whose 3-link best path crosses the direct link.
//
//	ha — r1 ——————— r2 — hb
//	       \       /
//	        r3 ———
func diamond(direct, detour rate.Rate) (*graph.Graph, graph.LinkID, graph.NodeID, graph.NodeID) {
	g := graph.New()
	r1, r2, r3 := g.AddRouter("r1"), g.AddRouter("r2"), g.AddRouter("r3")
	ab, _ := g.Connect(r1, r2, direct, time.Microsecond)
	g.Connect(r1, r3, detour, time.Microsecond)
	g.Connect(r3, r2, detour, time.Microsecond)
	ha, hb := g.AddHost("ha"), g.AddHost("hb")
	g.Connect(ha, r1, rate.Mbps(100), time.Microsecond)
	g.Connect(hb, r2, rate.Mbps(100), time.Microsecond)
	return g, ab, ha, hb
}

func diamondNet(t *testing.T, cfg Config) (*Network, *Session, graph.LinkID) {
	t.Helper()
	g, ab, ha, hb := diamond(rate.Mbps(80), rate.Mbps(40))
	net := New(g, sim.New(), cfg)
	path, err := graph.NewResolver(g, 16).HostPath(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	s, err := net.NewSession(ha, hb, path)
	if err != nil {
		t.Fatal(err)
	}
	return net, s, ab
}

// failRestoreCycle joins the session, fails and restores the direct link
// with quiescent epochs in between, and returns the session's final hop
// count.
func failRestoreCycle(t *testing.T, net *Network, s *Session, ab graph.LinkID) int {
	t.Helper()
	rev := net.g.Link(ab).Reverse
	net.ScheduleJoin(s, 0, rate.Inf)
	net.Run()
	if err := net.Validate(); err != nil {
		t.Fatalf("after join: %v", err)
	}
	if got := len(s.Current().Path); got != 3 {
		t.Fatalf("joined on %d hops, want 3", got)
	}
	net.ScheduleLinkFail(net.eng.Now()+time.Millisecond, ab, rev)
	net.Run()
	if err := net.Validate(); err != nil {
		t.Fatalf("after fail: %v", err)
	}
	if got := len(s.Current().Path); got != 4 {
		t.Fatalf("migrated onto %d hops, want the 4-hop detour", got)
	}
	if net.Migrations() != 1 {
		t.Fatalf("migrations = %d, want 1", net.Migrations())
	}
	net.ScheduleLinkRestore(net.eng.Now()+time.Millisecond, ab, rev)
	net.Run()
	if err := net.Validate(); err != nil {
		t.Fatalf("after restore: %v", err)
	}
	return len(s.Current().Path)
}

func TestPinnedKeepsDetourAfterRestore(t *testing.T) {
	net, s, ab := diamondNet(t, DefaultConfig())
	if got := failRestoreCycle(t, net, s, ab); got != 4 {
		t.Fatalf("pinned session moved to %d hops; must stay on the detour", got)
	}
	if net.Reoptimizations() != 0 {
		t.Fatalf("reoptimizations = %d under Pinned", net.Reoptimizations())
	}
	if r, _ := s.Rate(); !r.Equal(rate.Mbps(40)) {
		t.Fatalf("pinned rate = %v, want the 40 Mbps detour bottleneck", r)
	}
}

func TestReoptimizeOnRestoreReturnsToShortestPath(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PathPolicy = control.ReoptimizeOnRestore
	net, s, ab := diamondNet(t, cfg)
	if got := failRestoreCycle(t, net, s, ab); got != 3 {
		t.Fatalf("session on %d hops after restore, want 3", got)
	}
	if net.Reoptimizations() != 1 {
		t.Fatalf("reoptimizations = %d, want 1", net.Reoptimizations())
	}
	if net.Migrations() != 1 {
		t.Fatalf("migrations = %d, want 1 (reoptimizations are separate)", net.Migrations())
	}
	if r, _ := s.Rate(); !r.Equal(rate.Mbps(80)) {
		t.Fatalf("rate = %v, want the 80 Mbps direct bottleneck", r)
	}
	if net.ReconfigPackets() == 0 {
		t.Fatal("reconfiguration cost no packets")
	}
}

// detourAfterRestore runs the fail → restore cycle with the session out
// during the restore, so the sweep passes it by, and rejoins it: a rejoin
// keeps its last path while that is up, here the 4-hop detour.
func detourAfterRestore(t *testing.T, net *Network, s *Session, ab graph.LinkID) {
	t.Helper()
	rev := net.g.Link(ab).Reverse
	net.ScheduleJoin(s, 0, rate.Inf)
	net.ScheduleLinkFail(time.Millisecond, ab, rev)
	net.ScheduleLeave(s, 2*time.Millisecond)
	net.ScheduleLinkRestore(3*time.Millisecond, ab, rev)
	net.ScheduleJoin(s, 4*time.Millisecond, rate.Inf)
	net.Run()
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Current().Path); got != 4 {
		t.Fatalf("rejoined on %d hops, want the 4-hop detour", got)
	}
	if net.Reoptimizations() != 0 {
		t.Fatalf("reoptimizations = %d before any upgrade", net.Reoptimizations())
	}
}

func TestCapacityUpgradeSweeps(t *testing.T) {
	// Doubling the direct link's capacity sweeps: the session migrates back.
	cfg := DefaultConfig()
	cfg.PathPolicy = control.ReoptimizeOnRestore
	net, s, ab := diamondNet(t, cfg)
	detourAfterRestore(t, net, s, ab)
	rev := net.g.Link(ab).Reverse
	net.ScheduleSetCapacity(net.eng.Now()+time.Millisecond, rate.Mbps(160), ab, rev)
	net.Run()
	if err := net.Validate(); err != nil {
		t.Fatalf("after upgrade: %v", err)
	}
	if got := len(s.Current().Path); got != 3 {
		t.Fatalf("post-upgrade: session on %d hops, want 3", got)
	}
	if net.Reoptimizations() != 1 {
		t.Fatalf("reoptimizations = %d, want 1", net.Reoptimizations())
	}
	// 100 Mbps host access is now the bottleneck on the upgraded path.
	if r, _ := s.Rate(); !r.Equal(rate.Mbps(100)) {
		t.Fatalf("rate = %v, want 100 Mbps", r)
	}
}

func TestCapacityIncreaseBelowThresholdDoesNotSweep(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PathPolicy = control.ReoptimizeOnRestore
	net, s, ab := diamondNet(t, cfg)
	detourAfterRestore(t, net, s, ab)
	rev := net.g.Link(ab).Reverse
	// +25% is below the default 2× threshold: no sweep, the detour stays.
	net.ScheduleSetCapacity(net.eng.Now()+time.Millisecond, rate.Mbps(100), ab, rev)
	net.Run()
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Current().Path); got != 4 {
		t.Fatalf("session on %d hops; sub-threshold upgrade must not migrate", got)
	}
	if net.Reoptimizations() != 0 {
		t.Fatalf("reoptimizations = %d, want 0", net.Reoptimizations())
	}
}

// TestReconfigPacketAccounting pins the migration-cost metric: the
// fail+restore cycle's reconfiguration packets are bounded by the total, the
// per-session counters add up to the packet statistics, and a pure
// user-churn run costs zero reconfiguration packets.
func TestReconfigPacketAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PathPolicy = control.ReoptimizeOnRestore
	net, s, ab := diamondNet(t, cfg)
	failRestoreCycle(t, net, s, ab)
	total := net.Stats().Total()
	reconf := net.ReconfigPackets()
	if reconf == 0 || reconf >= total {
		t.Fatalf("reconfig packets %d out of bounds (total %d)", reconf, total)
	}
	var perSession uint64
	for _, pk := range net.sessPkts {
		perSession += pk
	}
	if perSession != total {
		t.Fatalf("per-session packets sum to %d, stats total %d", perSession, total)
	}

	// User churn alone must not register as reconfiguration cost.
	net, s, _ = diamondNet(t, DefaultConfig())
	net.ScheduleJoin(s, 0, rate.Inf)
	net.ScheduleChange(s, 2*time.Millisecond, rate.Mbps(10))
	net.ScheduleLeave(s, 4*time.Millisecond)
	net.Run()
	if net.ReconfigPackets() != 0 {
		t.Fatalf("user churn counted %d reconfiguration packets", net.ReconfigPackets())
	}
}

// TestReconfigPacketsDeterministicAcrossEngines: the accounting itself is a
// determinism surface. Every run of the fail+restore cycle costs exactly the
// 37 reconfiguration packets the classic engine and every shard count of the
// retired sharded engine agreed on.
func TestReconfigPacketsDeterministicAcrossEngines(t *testing.T) {
	const want = 37
	for run := 0; run < 2; run++ {
		cfg := DefaultConfig()
		cfg.PathPolicy = control.ReoptimizeOnRestore
		net, s, ab := diamondNet(t, cfg)
		failRestoreCycle(t, net, s, ab)
		if got := net.ReconfigPackets(); got != want {
			t.Fatalf("run %d: reconfig packets %d, want %d", run, got, want)
		}
	}
}
