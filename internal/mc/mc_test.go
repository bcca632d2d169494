package mc

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"bneck/internal/control"
	"bneck/internal/rate"
	"bneck/internal/scenario"
	"bneck/internal/waterfill"
)

// tinyScript runs in about a tenth of a millisecond per schedule: two
// sessions joining in one epoch over a shared bottleneck, then a racing
// change/leave epoch.
const tinyScript = `router r1
router r2
host h1 r1
host h2 r2
host h3 r1
link r1 r2 100mbps 1ms
session s1 h1 h2
session s2 h3 h2
at 0ms join s1
at 0ms join s2
at 10ms change s1 demand=10mbps
at 10ms leave s2
at 20ms expect rate s1 10mbps
`

// badExpectScript fails its expect assertion on every schedule.
const badExpectScript = `router r1
router r2
host h1 r1
host h2 r2
link r1 r2 100mbps 1ms
session s1 h1 h2
at 0ms join s1
at 10ms expect rate s1 1mbps
`

func mustModel(t *testing.T, src string) *Model {
	t.Helper()
	m, err := FromScript(src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestQuiescenceBound(t *testing.T) {
	m := mustModel(t, tinyScript)
	if m.Deadline <= 0 {
		t.Fatalf("hand-built script derived no quiescence bound")
	}
	// The bound must scale with the session count: doubling sessions (same
	// topology) doubles the structural bound.
	doubled := tinyScript + "session s3 h1 h2\nsession s4 h3 h2\n"
	m2 := mustModel(t, doubled)
	if m2.Deadline != 2*m.Deadline {
		t.Fatalf("bound did not scale with sessions: %v vs %v", m.Deadline, m2.Deadline)
	}
	// Generated rungs use their tier delays, far above the hand script's.
	inet := mustModel(t, "topology internet paper seed=1 hosts=4\nsession s1 h0 h1\nat 0ms join s1\n")
	if inet.Deadline <= m.Deadline {
		t.Fatalf("internet bound %v not above hand-built %v", inet.Deadline, m.Deadline)
	}
}

// TestClassifyCrossCheck: a Validate failure of the oracle's cross-check,
// wrapped the way control.Check, network.Validate and the scenario runner
// wrap it, is an oracle-exactness violation — even when its message happens
// to contain the word the expectation heuristic looks for — and the one
// stale-incarnation sentinel classifies as such from either transport.
func TestClassifyCrossCheck(t *testing.T) {
	a := waterfill.Assembler[int]{Capacity: func(int) rate.Rate { return rate.Mbps(10) }}
	a.Add(rate.Inf, []int{0})
	a.Add(rate.Inf, []int{0})
	err := a.CrossCheck([]rate.Rate{rate.Mbps(4), rate.Mbps(6)})
	if !errors.Is(err, waterfill.ErrCrossCheck) {
		t.Fatalf("CrossCheck of an unfair split: %v", err)
	}
	for _, wrapped := range []error{
		&scenario.EpochError{At: 10 * time.Millisecond, Err: fmt.Errorf("network: oracle: %w", err)},
		&scenario.EpochError{Err: fmt.Errorf("unexpected rates: %w", err)},
	} {
		if k := classify(wrapped); k != KindOracle {
			t.Fatalf("classify(%v) = %v, want %v", wrapped, k, KindOracle)
		}
	}
	for _, prefix := range []string{"network", "live"} {
		stale := &scenario.EpochError{Err: fmt.Errorf("%s: session 3: %w", prefix, control.ErrStaleIncarnation)}
		if k := classify(stale); k != KindStaleIncarnation {
			t.Fatalf("classify(%v) = %v, want %v", stale, k, KindStaleIncarnation)
		}
	}
}

func TestSwarm(t *testing.T) {
	m := mustModel(t, tinyScript)
	for _, seeds := range []int{25, 1001} { // no run budget caps the seeds
		res, err := Explore(m, Config{Seeds: seeds, Seed0: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			t.Fatalf("swarm violation: %v", res.Violation)
		}
		if res.Runs != seeds {
			t.Fatalf("swarm ran %d schedules, want %d", res.Runs, seeds)
		}
	}
}

func TestViolationYieldsReplayableTrace(t *testing.T) {
	m := mustModel(t, badExpectScript)
	res, err := Explore(m, Config{Seeds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("always-failing expectation not caught")
	}
	if res.Violation.Kind != KindExpectation {
		t.Fatalf("violation kind = %v, want %v", res.Violation.Kind, KindExpectation)
	}
	tr := res.Violation.Trace
	if tr == nil || tr.ScriptHash != m.Hash {
		t.Fatalf("violation trace missing or mishashed: %+v", tr)
	}
	v, err := Replay(m, tr)
	if err != nil {
		t.Fatal(err)
	}
	if v == nil || v.Kind != KindExpectation {
		t.Fatalf("trace replay did not reproduce: %+v", v)
	}
}

func TestMinimize(t *testing.T) {
	m := mustModel(t, badExpectScript)
	// The expectation fails on every schedule, so every deviation in this
	// hand-inflated trace is noise ddmin must strip.
	fat := &Trace{ScriptHash: m.Hash, Picks: []int{1, 0, 1, 1, 0, 1}}
	min, replays, err := Minimize(m, fat, KindExpectation)
	if err != nil {
		t.Fatal(err)
	}
	if min.Deviations() != 0 {
		t.Fatalf("minimized trace keeps %d deviations: %v", min.Deviations(), min.Picks)
	}
	if replays == 0 {
		t.Fatal("minimization did not replay anything")
	}
	// A trace that does not reproduce the requested kind is returned as-is.
	same, _, err := Minimize(m, fat, KindQuiescence)
	if err != nil {
		t.Fatal(err)
	}
	if same != fat {
		t.Fatal("non-reproducing trace was not returned unchanged")
	}
}

func TestSynthesize(t *testing.T) {
	a, err := Synthesize("paper", 3, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize("paper", 3, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Source != b.Source || a.Hash != b.Hash {
		t.Fatal("synthesis is not deterministic")
	}
	c, err := Synthesize("paper", 3, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.Source == a.Source {
		t.Fatal("different seeds produced identical workloads")
	}
	if !strings.Contains(a.Source, "topology internet paper") {
		t.Fatalf("synthesized source lacks topology line:\n%s", a.Source)
	}
	if _, err := Synthesize("warp", 3, 4, 7); err == nil {
		t.Fatal("unknown rung accepted")
	}
	// The synthesized workload must actually run clean in default order.
	if picks, v := runOnce(a, &replayPicker{}); v != nil {
		t.Fatalf("synthesized workload violated in default order (%d picks): %v", len(picks), v)
	}
}

// TestPaperQuiescenceBoundTrips pins that the quiescence invariant is armed:
// an absurdly tight bound must trip on the very first schedule.
func TestPaperQuiescenceBoundTrips(t *testing.T) {
	m, err := FromFile("testdata/paper.bneck")
	if err != nil {
		t.Fatal(err)
	}
	m.Deadline = time.Nanosecond
	res, err := Explore(m, Config{Seeds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil || res.Violation.Kind != KindQuiescence {
		t.Fatalf("nanosecond bound did not trip quiescence invariant: %+v", res.Violation)
	}
}
