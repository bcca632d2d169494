package network

import (
	"errors"
	"testing"
	"time"

	"bneck/internal/rate"
	"bneck/internal/sim"
	"bneck/internal/waterfill"
)

// TestOracleCrossCheckTopologyEvents walks every change the oracle's
// instance can see — join, capacity change, fail (with forced migration),
// demand change, restore, leave — on the diamond with Config.OracleCrossCheck
// on, so every Validate also checks Solve's rates against WaterFilling and
// Verify. At the end a seeded wrong rate must fail the same check.
func TestOracleCrossCheckTopologyEvents(t *testing.T) {
	g, ha, hb, top, _ := buildDiamond()
	eng := sim.New()
	cfg := DefaultConfig()
	cfg.OracleCrossCheck = true
	n := New(g, eng, cfg)
	path, err := n.HostPath(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := n.NewSession(ha, hb, path)
	n.ScheduleJoin(s, 0, rate.Inf)
	s2, _ := n.NewSession(ha, hb, path)
	n.ScheduleJoin(s2, 0, rate.Mbps(5))
	step := func(what string) {
		t.Helper()
		n.Run()
		if err := n.Validate(); err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
	}
	step("joins")
	n.ScheduleSetCapacity(eng.Now()+time.Millisecond, rate.Mbps(20), top[0][0], top[0][1])
	step("capacity change")
	n.ScheduleLinkFail(eng.Now()+time.Millisecond, top[0][0], top[0][1])
	step("failure")
	n.ScheduleChange(s2, eng.Now()+time.Millisecond, rate.Mbps(9))
	step("demand change")
	n.ScheduleLinkRestore(eng.Now()+time.Millisecond, top[0][0], top[0][1])
	step("restore")
	n.ScheduleLeave(s, eng.Now()+time.Millisecond)
	step("leave")

	rates, err := n.oracleRates()
	if err != nil {
		t.Fatal(err)
	}
	if len(rates) != 1 {
		t.Fatalf("%d active sessions after the leave, want 1", len(rates))
	}
	rates[0] = rates[0].DivInt(2)
	if err := n.oracle.CrossCheck(rates); !errors.Is(err, waterfill.ErrCrossCheck) {
		t.Fatalf("cross-check of a halved rate: %v, want ErrCrossCheck", err)
	}
}
