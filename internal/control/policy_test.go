package control

import (
	"testing"

	"bneck/internal/rate"
)

func TestZeroValueIsPinned(t *testing.T) {
	var c Policy
	if c.Enabled() {
		t.Fatal("zero-value config must be Pinned")
	}
	if c.shouldMigrate(10, 3) {
		t.Fatal("Pinned must never migrate")
	}
	if c.capacityTriggers(rate.Mbps(10), rate.Mbps(1000)) {
		t.Fatal("Pinned must never fire the capacity trigger")
	}
}

func TestShouldMigrateDefaults(t *testing.T) {
	c := ReoptimizeOnRestore
	cases := []struct {
		cur, best int
		want      bool
	}{
		{4, 3, true},  // any strict improvement
		{4, 4, false}, // equal: stay
		{3, 4, false}, // best longer (can't happen, but must not migrate)
		{4, 0, false}, // degenerate best path
		{10, 2, true}, // large improvement
		{2, 1, true},  // minimal paths still improve
	}
	for _, tc := range cases {
		if got := c.shouldMigrate(tc.cur, tc.best); got != tc.want {
			t.Errorf("shouldMigrate(%d, %d) = %t, want %t", tc.cur, tc.best, got, tc.want)
		}
	}
}

func TestCapacityTriggers(t *testing.T) {
	c := ReoptimizeOnRestore // the gain: 2×
	if c.capacityTriggers(rate.Mbps(100), rate.Mbps(150)) {
		t.Fatal("1.5× increase is below the default 2× threshold")
	}
	if !c.capacityTriggers(rate.Mbps(100), rate.Mbps(200)) {
		t.Fatal("2× increase must trigger")
	}
	if c.capacityTriggers(rate.Mbps(100), rate.Mbps(50)) {
		t.Fatal("a decrease must never trigger")
	}
	if c.capacityTriggers(rate.Mbps(100), rate.FromInt64(199_999_999)) {
		t.Fatal("just short of 2× must not trigger: the gain is a fixed doubling")
	}
	if !c.capacityTriggers(rate.Mbps(100), rate.Inf) {
		t.Fatal("an upgrade to unlimited must trigger")
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{
		"pinned":     Pinned,
		"reoptimize": ReoptimizeOnRestore,
	} {
		got, ok := ParsePolicy(s)
		if !ok || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %t", s, got, ok)
		}
	}
	for _, s := range []string{"bogus", "reoptimize-on-restore"} {
		if _, ok := ParsePolicy(s); ok {
			t.Fatalf("ParsePolicy accepted %q", s)
		}
	}
	if Pinned.String() != "pinned" || ReoptimizeOnRestore.String() != "reoptimize" {
		t.Fatal("Policy.String drifted from the scenario-DSL spelling")
	}
}
