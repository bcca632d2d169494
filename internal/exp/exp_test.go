package exp

import (
	"strings"
	"testing"
	"time"

	"bneck/internal/network"
	"bneck/internal/sim"
	"bneck/internal/topology"
)

func smallExp1() Exp1Config {
	cfg := DefaultExp1()
	cfg.Sizes = []topology.Params{topology.Small}
	cfg.Scenarios = []topology.Scenario{topology.LAN, topology.WAN}
	cfg.SessionCounts = []int{10, 100}
	return cfg
}

func TestExperiment1SmallScale(t *testing.T) {
	rows, err := RunExperiment1(smallExp1())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Quiescence <= 0 {
			t.Fatalf("%+v: no quiescence time", r)
		}
		if r.Packets == 0 {
			t.Fatalf("%+v: no packets", r)
		}
		// The paper's probe-cycle accounting: at least 2·pathlen packets per
		// session (join + response), so ≥ 4 per session on any topology.
		if r.PacketsPerSession < 4 {
			t.Fatalf("%+v: implausibly few packets per session", r)
		}
	}
	// Figure 5 shape: more sessions → more packets; WAN quiescence slower
	// than LAN at equal load (propagation dominates).
	byKey := map[string]Exp1Row{}
	for _, r := range rows {
		byKey[r.Scenario+string(rune(r.Sessions))] = r
	}
	for _, scen := range []string{"LAN", "WAN"} {
		if byKey[scen+string(rune(10))].Packets >= byKey[scen+string(rune(100))].Packets {
			t.Fatalf("packets did not grow with sessions in %s", scen)
		}
	}
	if byKey["WAN"+string(rune(100))].Quiescence <= byKey["LAN"+string(rune(100))].Quiescence {
		t.Fatalf("WAN quiescence not slower than LAN")
	}
	out := FormatExp1(rows)
	if !strings.Contains(out, "Figure 5") || !strings.Contains(out, "Small") {
		t.Fatalf("FormatExp1 output malformed:\n%s", out)
	}
}

func TestExperiment2SmallScale(t *testing.T) {
	cfg := DefaultExp2()
	cfg.Topology = topology.Small
	cfg.Base = 400
	cfg.Dyn = 80
	res, err := RunExperiment2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 5 {
		t.Fatalf("phases = %d", len(res.Phases))
	}
	for i, p := range res.Phases {
		if p.Took <= 0 {
			t.Fatalf("phase %d (%s) took %v", i, p.Name, p.Took)
		}
		if p.Packets == 0 {
			t.Fatalf("phase %d (%s) sent no packets", i, p.Name)
		}
	}
	// Quiescence between phases: there must exist empty bins between phase
	// bursts (B-Neck stops talking).
	sawEmpty := false
	for _, b := range res.Bins {
		if b.Total == 0 {
			sawEmpty = true
		}
	}
	if !sawEmpty && len(res.Bins) > 3 {
		t.Fatalf("no quiet interval found across %d bins", len(res.Bins))
	}
	out := FormatExp2(res)
	if !strings.Contains(out, "Figure 6") {
		t.Fatalf("FormatExp2 output malformed")
	}
}

func TestExperiment3SmallScale(t *testing.T) {
	cfg := DefaultExp3()
	cfg.Topology = topology.Small
	cfg.Sessions = 300
	cfg.Leavers = 30
	cfg.Horizon = 100 * time.Millisecond
	res, err := RunExperiment3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d", len(res.Series))
	}
	bn, bf := res.Series[0], res.Series[1]
	if bn.Protocol != "B-Neck" || bf.Protocol != "BFYZ" {
		t.Fatalf("protocols = %s, %s", bn.Protocol, bf.Protocol)
	}
	if !bn.Quiescent {
		t.Fatalf("B-Neck not quiescent")
	}
	if bn.ConvergedAt == 0 {
		t.Fatalf("B-Neck never converged: %+v", bn.SourceErr.Points[len(bn.SourceErr.Points)-1])
	}
	// Figure 8 shape: B-Neck's traffic dies at quiescence (its bins stop
	// growing there); BFYZ keeps sending until the horizon.
	lastBn := bn.Bins[len(bn.Bins)-1]
	if lastBn.Start > bn.QuiescenceAt {
		t.Fatalf("B-Neck sent packets at %v, after quiescence %v", lastBn.Start, bn.QuiescenceAt)
	}
	if bn.QuiescenceAt >= cfg.Horizon/2 {
		t.Fatalf("B-Neck quiescence suspiciously late: %v", bn.QuiescenceAt)
	}
	lastBf := bf.Bins[len(bf.Bins)-1]
	if lastBf.Start < cfg.Horizon-2*cfg.SampleEvery {
		t.Fatalf("BFYZ went quiet at %v (must keep probing to %v)", lastBf.Start, cfg.Horizon)
	}
	tail := cfg.Horizon * 3 / 4
	if n := packetsFrom(bn, tail); n != 0 {
		t.Fatalf("B-Neck sent %d packets in the last quarter of the horizon", n)
	}
	if packetsFrom(bf, tail) == 0 {
		t.Fatalf("BFYZ went quiet (must keep probing)")
	}
	// Figure 7 shape: B-Neck's transient errors are conservative — the
	// median source error and the 90th-percentile bottleneck-link error are
	// never positive (a single source may still sit above its final rate) —
	// while BFYZ overshoots at some point.
	for _, p := range bn.SourceErr.Points {
		if p.Summary.Median > 0.01 {
			t.Fatalf("B-Neck median error positive at %v: %+v", p.At, p.Summary)
		}
	}
	for _, p := range bn.LinkErr.Points {
		if p.Summary.P90 > 1e-9 { // float64 sums of exact rates round by ~1e-14
			t.Fatalf("B-Neck link error p90 positive at %v: %+v", p.At, p.Summary)
		}
	}
	sawOver := false
	for _, p := range bf.SourceErr.Points {
		if p.Summary.P90 > 0.5 {
			sawOver = true
		}
	}
	if !sawOver {
		t.Fatalf("BFYZ never overestimated")
	}
	out := FormatExp3(res)
	if !strings.Contains(out, "Figure 7") || !strings.Contains(out, "Figure 8") {
		t.Fatalf("FormatExp3 output malformed")
	}
}

func TestExperiment3BaselinesCGRCP(t *testing.T) {
	cfg := DefaultExp3()
	cfg.Topology = topology.Small
	cfg.Sessions = 100
	cfg.Leavers = 0
	cfg.Horizon = 60 * time.Millisecond
	cfg.Protocols = []string{"cg", "rcp"}
	res, err := RunExperiment3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		if s.Quiescent {
			t.Fatalf("%s claims quiescence", s.Protocol)
		}
		if s.Packets == 0 {
			t.Fatalf("%s sent nothing", s.Protocol)
		}
		if len(s.SourceErr.Points) == 0 {
			t.Fatalf("%s has no samples", s.Protocol)
		}
		// Figure 8: a non-quiescent protocol keeps sending to the horizon.
		if packetsFrom(s, cfg.Horizon*3/4) == 0 {
			t.Fatalf("%s sent nothing in the last quarter of the horizon", s.Protocol)
		}
	}
}

// packetsFrom sums the packets of s's Figure 8 bins that start at or after t.
func packetsFrom(s Exp3Series, t time.Duration) uint64 {
	var n uint64
	for _, b := range s.Bins {
		if b.Start >= t {
			n += b.Total
		}
	}
	return n
}

func TestExperiment3UnknownProtocol(t *testing.T) {
	cfg := DefaultExp3()
	cfg.Topology = topology.Small
	cfg.Sessions = 10
	cfg.Leavers = 0
	cfg.Protocols = []string{"nope"}
	if _, err := RunExperiment3(cfg); err == nil {
		t.Fatalf("expected error")
	}
}

// TestBadSessionCounts: a session count below what an entry point accepts is
// an error before anything runs, never a panic in host placement.
func TestBadSessionCounts(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"exp1 negative", func() error {
			cfg := smallExp1()
			cfg.SessionCounts = []int{10, -5}
			_, err := RunExperiment1(cfg)
			return err
		}},
		{"exp3 negative", func() error {
			cfg := DefaultExp3()
			cfg.Topology = topology.Small
			cfg.Sessions, cfg.Leavers = -10, -1
			_, err := RunExperiment3(cfg)
			return err
		}},
		{"exp3 zero", func() error {
			cfg := DefaultExp3()
			cfg.Topology = topology.Small
			cfg.Sessions, cfg.Leavers = 0, 0
			_, err := RunExperiment3(cfg)
			return err
		}},
		{"PlaceSessions negative", func() error {
			topo, err := topology.Generate(topology.Small, topology.LAN, 1)
			if err != nil {
				t.Fatal(err)
			}
			_, err = PlaceSessions(topo, network.New(topo.Graph, sim.New(), network.DefaultConfig()), -1)
			return err
		}},
	} {
		if err := tc.run(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestExp2RejectsBadConfig(t *testing.T) {
	cfg := DefaultExp2()
	cfg.Base = 10
	cfg.Dyn = 20
	if _, err := RunExperiment2(cfg); err == nil {
		t.Fatalf("expected error for dyn > base")
	}
}
