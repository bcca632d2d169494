//go:build mc_strandbug

package mc

import (
	"testing"
)

// With the mc_strandbug test double compiled in (the PR 2 edge: leaving a
// stranded session skips the unpark, so a later restore resurrects it), the
// committed trace must reproduce an expectation violation — the script's
// expects assert the departed session stays gone — and so must its
// minimization. The unaided find is internal/control's TestExploreProtocol
// under the same tag.
// CI runs this as `go test -tags mc_strandbug -run StrandBug ./internal/mc/`.
func TestStrandBugTraceReproduces(t *testing.T) {
	m, err := FromFile("testdata/pr2_stranding.bneck")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := LoadTrace("testdata/pr2_stranding.trace")
	if err != nil {
		t.Fatal(err)
	}
	v, err := Replay(m, tr)
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatal("committed trace does not reproduce under the stranding double")
	}
	if v.Kind != KindExpectation {
		t.Fatalf("violation kind = %v, want %v (err: %v)", v.Kind, KindExpectation, v.Err)
	}
	min, _, err := Minimize(m, tr, v.Kind)
	if err != nil {
		t.Fatal(err)
	}
	if min.Deviations() > tr.Deviations() {
		t.Fatalf("minimization grew the trace: %d > %d deviations", min.Deviations(), tr.Deviations())
	}
	if v, err := Replay(m, min); err != nil || v == nil || v.Kind != KindExpectation {
		t.Fatalf("the minimized trace does not reproduce: %v, %v", v, err)
	}
}
