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
	if c.shouldMigrate(10, 3, false) {
		t.Fatal("Pinned must never migrate")
	}
	if c.capacityTriggers(rate.Mbps(10), rate.Mbps(1000)) {
		t.Fatal("Pinned must never fire the capacity trigger")
	}
}

func TestShouldMigrateDefaults(t *testing.T) {
	c := Policy{Kind: ReoptimizeOnRestore}
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
		if got := c.shouldMigrate(tc.cur, tc.best, false); got != tc.want {
			t.Errorf("shouldMigrate(%d, %d) = %t, want %t", tc.cur, tc.best, got, tc.want)
		}
	}
}

func TestStretchHysteresis(t *testing.T) {
	c := Policy{Kind: ReoptimizeOnRestore, Stretch: 1.5}
	if c.shouldMigrate(4, 3, false) {
		t.Fatal("4 hops is within 1.5× of 3 — must stay")
	}
	if !c.shouldMigrate(5, 3, false) {
		t.Fatal("5 hops exceeds 1.5× of 3 — must migrate")
	}
	// The capacity-upgrade bypass ignores the stretch.
	if !c.shouldMigrate(4, 3, true) {
		t.Fatal("upgraded sweep must bypass the stretch hysteresis")
	}
	if c.shouldMigrate(3, 3, true) {
		t.Fatal("upgraded sweep still requires a strict improvement")
	}
}

func TestMinGainHysteresis(t *testing.T) {
	c := Policy{Kind: ReoptimizeOnRestore, MinGain: 3}
	if c.shouldMigrate(5, 3, false) {
		t.Fatal("gain of 2 hops is below MinGain 3 — must stay")
	}
	if !c.shouldMigrate(6, 3, false) {
		t.Fatal("gain of 3 hops meets MinGain 3 — must migrate")
	}
}

func TestCapacityTriggers(t *testing.T) {
	c := Policy{Kind: ReoptimizeOnRestore} // the gain: 2×
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
	for s, want := range map[string]PolicyKind{
		"pinned":                Pinned,
		"reoptimize":            ReoptimizeOnRestore,
		"reoptimize-on-restore": ReoptimizeOnRestore,
	} {
		got, ok := ParsePolicy(s)
		if !ok || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %t", s, got, ok)
		}
	}
	if _, ok := ParsePolicy("bogus"); ok {
		t.Fatal("ParsePolicy accepted a bogus policy name")
	}
	if Pinned.String() != "pinned" || ReoptimizeOnRestore.String() != "reoptimize" {
		t.Fatal("PolicyKind.String drifted from the scenario-DSL spelling")
	}
}
