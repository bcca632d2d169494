// Package mc is the schedule-exploration harness: it model-checks the
// paper's quiescence theorem over event interleavings by driving the
// deterministic simulator under controlled nondeterminism.
//
// The determinism suites elsewhere in the repository pin exactly one
// (time, creator, creator-seq) total order per workload. The paper's claims
// — quiescence, max-min exactness, stale-message safety — are theorems over
// *all* schedules, and bugs like PR 4's stale rejoin hide precisely in the
// orders no fixed tie-break ever produces. This package installs a
// sim.Chooser on the classic engine and enumerates the cross-creator
// tie-breaks three ways:
//
//   - exhaustive DFS with depth/run bounds, for paper-sized topologies;
//   - the same DFS with sleep-set pruning over an independence relation
//     (events whose owning nodes are disjoint commute) and an optional
//     delay bound, for deeper timelines;
//   - seeded swarm randomization, optionally composed with a churn-timing
//     fuzzer that perturbs the scenario timeline, for larger rungs.
//
// Every explored run is checked against four invariants: quiescence within
// a structural bound (scenario.ErrQuiescenceOverrun); final rates byte-equal
// to the oracle's (waterfill.Solver), themselves checked against
// WaterFilling and Verify on the same instance (waterfill.ErrCrossCheck);
// no-stale-incarnation (control.ErrStaleIncarnation); and — sampled — the
// live runtime's Validate. A violating schedule serializes to a compact
// choice-trace file that cmd/mc replays deterministically and shrinks by
// delta-debugging.
package mc

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"bneck/internal/control"
	"bneck/internal/scenario"
	"bneck/internal/waterfill"
)

// InvariantKind classifies which invariant a schedule violated.
type InvariantKind int

const (
	// KindNone marks the zero Violation.
	KindNone InvariantKind = iota
	// KindQuiescence: an epoch was still busy past its structural bound.
	KindQuiescence
	// KindOracle: a session's rate differs from the oracle's, or the oracle
	// failed its cross-check against WaterFilling and Verify.
	KindOracle
	// KindStaleIncarnation: a departed session lifetime was observed active
	// (the PR 4 bug shape), on either transport.
	KindStaleIncarnation
	// KindExpectation: a scripted `expect` assertion failed after its epoch
	// quiesced (the PR 2 stranding edge surfaces here).
	KindExpectation
	// KindLive: the live runtime's Validate failed on a sampled live run.
	KindLive
	// KindPanic: the run panicked (protocol state corruption, e.g. a core
	// task hitting an impossible transition).
	KindPanic
)

func (k InvariantKind) String() string {
	switch k {
	case KindQuiescence:
		return "quiescence-bound"
	case KindOracle:
		return "oracle-exactness"
	case KindStaleIncarnation:
		return "stale-incarnation"
	case KindExpectation:
		return "expectation"
	case KindLive:
		return "live-validate"
	case KindPanic:
		return "panic"
	default:
		return "none"
	}
}

// Violation is one invariant failure together with the schedule that
// produced it.
type Violation struct {
	Kind InvariantKind
	// Err is the underlying failure (an *scenario.EpochError for simulator
	// runs; a reconstructed error for panics).
	Err error
	// Trace replays the violating schedule deterministically.
	Trace *Trace
}

func (v *Violation) Error() string {
	return fmt.Sprintf("mc: %s violation: %v", v.Kind, v.Err)
}

// Config tunes one exploration.
type Config struct {
	// Strategy is "dfs" or "swarm".
	Strategy string
	// MaxRuns bounds how many schedules the exploration executes (DFS may
	// exhaust the tree earlier). Zero means 1000.
	MaxRuns int
	// MaxDepth bounds choice points per run: beyond it the run continues in
	// default order without branching. Zero means unbounded.
	MaxDepth int
	// Prune enables sleep-set pruning (DFS only): schedules that differ only
	// by commuting independent events are explored once.
	Prune bool
	// DelayBound, when positive, bounds the total number of default-order
	// deferrals per run (DFS only): picking enabled candidate k costs k.
	DelayBound int
	// Seeds is the number of swarm seeds (swarm only). Zero means 100.
	Seeds int
	// Seed0 is the first swarm seed.
	Seed0 int64
	// Fuzz perturbs churn timings per swarm seed (swarm only): event
	// timestamps are redrawn on a coarse grid so fail/restore/join/leave
	// collide into racing epochs.
	Fuzz bool
	// LiveEvery runs the script on the live runtime every n-th explored
	// schedule (0 disables). The live transport has no virtual clock, so
	// these runs sample real concurrency rather than replaying the chosen
	// schedule.
	LiveEvery int
	// Stats receives progress output when non-nil.
	Log func(format string, args ...any)
}

// Result summarizes one exploration.
type Result struct {
	// Runs is the number of distinct schedules executed. Under DFS every
	// run's pick vector differs, so Runs counts distinct schedules.
	Runs int
	// ChoicePoints is the total number of consulted tie-breaks.
	ChoicePoints int
	// Pruned counts DFS siblings skipped by sleep sets or the delay bound.
	Pruned int
	// Exhausted reports that DFS ran out of unexplored schedules before
	// MaxRuns.
	Exhausted bool
	// LiveRuns is how many sampled live-transport runs executed.
	LiveRuns int
	// Violation is the first invariant failure, nil if none.
	Violation *Violation
}

// classify maps a run error to the invariant it violated. Sentinel matches
// come first; what remains is either a scripted assertion (`expect` in the
// message) or a network/link validation failure, which all trace back to the
// allocation not matching the oracle.
func classify(err error) InvariantKind {
	switch {
	case errors.Is(err, scenario.ErrQuiescenceOverrun):
		return KindQuiescence
	case errors.Is(err, control.ErrStaleIncarnation):
		return KindStaleIncarnation
	case errors.Is(err, waterfill.ErrCrossCheck):
		return KindOracle
	case strings.Contains(err.Error(), "expect"):
		return KindExpectation
	default:
		return KindOracle
	}
}

// Explore runs the configured strategy against the model and reports what it
// found. A nil Result.Violation means every explored schedule satisfied all
// invariants.
func Explore(m *Model, cfg Config) (*Result, error) {
	if cfg.MaxRuns <= 0 {
		cfg.MaxRuns = 1000
	}
	if cfg.Log == nil {
		cfg.Log = func(string, ...any) {}
	}
	switch cfg.Strategy {
	case "", "dfs", "delay":
		return exploreDFS(m, cfg)
	case "swarm":
		return exploreSwarm(m, cfg)
	default:
		return nil, fmt.Errorf("mc: unknown strategy %q (dfs, swarm)", cfg.Strategy)
	}
}

// timeBound is a helper for pretty-printing the model's deadline.
func timeBound(d time.Duration) string {
	if d <= 0 {
		return "disabled"
	}
	return d.String()
}
