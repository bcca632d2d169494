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
	// The holds are bounded by the same per-hop round trip, which does not
	// scale with sessions.
	if m.Hold <= 0 || m2.Hold != m.Hold || inet.Hold <= m.Hold {
		t.Fatalf("hold bounds %v, %v (doubled sessions), %v (internet)", m.Hold, m2.Hold, inet.Hold)
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
	swarmFindsViolation(t, mustModel(t, badExpectScript), KindExpectation)
}

// swarmFindsViolation runs a 10-seed swarm on m and requires it to report a
// violation of the given kind whose trace replays to that kind, before and
// after minimization.
func swarmFindsViolation(t *testing.T, m *Model, kind InvariantKind) {
	t.Helper()
	res, err := Explore(m, Config{Seeds: 10, Seed0: 1})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Violation
	if v == nil {
		t.Fatalf("%d seeds found no violation", res.Runs)
	}
	if v.Kind != kind {
		t.Fatalf("violation kind = %v, want %v (err: %v)", v.Kind, kind, v.Err)
	}
	tr := v.Trace
	if tr == nil || tr.ScriptHash != m.Hash {
		t.Fatalf("violation trace missing or mishashed: %+v", tr)
	}
	if v, err := Replay(m, tr); err != nil || v == nil || v.Kind != kind {
		t.Fatalf("the trace does not reproduce: %v, %v", v, err)
	}
	min, _, err := Minimize(m, tr, kind)
	if err != nil {
		t.Fatal(err)
	}
	if min.Deviations() > tr.Deviations() {
		t.Fatalf("minimization grew the trace: %d > %d deviations", min.Deviations(), tr.Deviations())
	}
	if v, err := Replay(m, min); err != nil || v == nil || v.Kind != kind {
		t.Fatalf("the minimized trace does not reproduce: %v, %v", v, err)
	}
}

func TestMinimize(t *testing.T) {
	m := mustModel(t, badExpectScript)
	// The expectation fails on every schedule, so every deviation in this
	// hand-inflated trace is noise ddmin must strip.
	fat := &Trace{ScriptHash: m.Hash, Delays: []time.Duration{300, 0, 1000, 42000, 0, 7}}
	min, replays, err := Minimize(m, fat, KindExpectation)
	if err != nil {
		t.Fatal(err)
	}
	if min.Deviations() != 0 {
		t.Fatalf("minimized trace keeps %d deviations: %v", min.Deviations(), min.Delays)
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
	// The synthesized workload must actually run clean undelayed.
	if _, v := runOnce(a, &holds{}); v != nil {
		t.Fatalf("synthesized workload violated undelayed: %v", v)
	}
}

// TestSwarmReach: on the paper fixture the holds move the amount of work a
// run does — 200 seeds reach at least 10 distinct packet totals.
func TestSwarmReach(t *testing.T) {
	m, err := FromFile("testdata/paper.bneck")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Explore(m, Config{Seeds: 200, Seed0: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatal(res.Violation)
	}
	if res.PacketTotals < 10 || res.Delayed == 0 {
		t.Fatalf("200 seeds held %d crossings and reached %d distinct packet totals, want at least 10",
			res.Delayed, res.PacketTotals)
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
