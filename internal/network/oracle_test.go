package network

import (
	"testing"
	"time"

	"bneck/internal/rate"
	"bneck/internal/sim"
)

// TestOracleCrossCheckTopologyEvents walks every change the oracle's
// instance can see — join, capacity change, fail (with forced migration),
// demand change, restore, leave — on the diamond with Config.OracleCrossCheck
// on, so every Validate also checks Solve's rates against WaterFilling and
// Verify. (control's TestOracleCrossCheckCatchesWrongRate seeds a wrong rate.)
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

	rates, err := n.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rates[s2.Current().ID]; len(rates) != 1 || !ok {
		t.Fatalf("oracle after the leave covers %v, want session %d alone", rates, s2.Current().ID)
	}
}
