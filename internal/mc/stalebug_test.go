//go:build mc_stalebug

package mc

import (
	"testing"
)

// With the mc_stalebug test double compiled in (the PR 4 bug shape: rejoin
// reuses the departed incarnation), the committed trace must reproduce a
// stale-incarnation violation, and so must its minimization. The unaided find
// is internal/control's TestExploreProtocol under the same tag.
// CI runs this as `go test -tags mc_stalebug -run StaleBug ./internal/mc/`.
func TestStaleBugTraceReproduces(t *testing.T) {
	m, err := FromFile("testdata/stale_rejoin.bneck")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := LoadTrace("testdata/stale_rejoin.trace")
	if err != nil {
		t.Fatal(err)
	}
	v, err := Replay(m, tr)
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatal("committed trace does not reproduce under the stale-rejoin double")
	}
	if v.Kind != KindStaleIncarnation {
		t.Fatalf("violation kind = %v, want %v (err: %v)", v.Kind, KindStaleIncarnation, v.Err)
	}
	min, _, err := Minimize(m, tr, v.Kind)
	if err != nil {
		t.Fatal(err)
	}
	if min.Deviations() > tr.Deviations() {
		t.Fatalf("minimization grew the trace: %d > %d deviations", min.Deviations(), tr.Deviations())
	}
	if v, err := Replay(m, min); err != nil || v == nil || v.Kind != KindStaleIncarnation {
		t.Fatalf("the minimized trace does not reproduce: %v, %v", v, err)
	}
}

// TestStaleBugSwarmFinds: the swarm rediscovers the bug on the corpus script
// unaided, within 10 seeds, and its trace replays and minimizes.
func TestStaleBugSwarmFinds(t *testing.T) {
	m, err := FromFile("testdata/stale_rejoin.bneck")
	if err != nil {
		t.Fatal(err)
	}
	swarmFindsViolation(t, m, KindStaleIncarnation)
}
