// Package mc is the schedule-exploration harness: it model-checks the
// paper's quiescence theorem over event interleavings by driving the
// deterministic simulator under seeded wire delays.
//
// The determinism suites elsewhere in the repository pin exactly one
// (time, creator, creator-seq) total order per workload. The paper's claims
// — quiescence, max-min exactness, stale-message safety — are theorems over
// *all* schedules. The protocol explorer in internal/control's tests checks
// them exhaustively in the paper's own model (FIFO channels, arbitrary
// delays) on small graphs; this package samples the same model on whole
// scenario scripts, at any rung: each swarm seed holds packets on their
// wires for random times (FIFO per wire, so every run is a legal execution
// of the paper's channels), optionally composed with a churn-timing fuzzer
// that perturbs the scenario timeline.
//
// Every explored run is checked against four invariants: quiescence within
// a structural bound (scenario.ErrQuiescenceOverrun); final rates byte-equal
// to the oracle's (waterfill.Solver), themselves checked against
// WaterFilling and Verify on the same instance (waterfill.ErrCrossCheck);
// no-stale-incarnation (control.ErrStaleIncarnation); and — sampled — the
// live runtime's Validate. A violating schedule serializes to a compact
// delay-trace file that cmd/mc replays deterministically and shrinks by
// delta-debugging.
package mc

import (
	"errors"
	"fmt"
	"strings"

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
	// Seeds is the number of swarm seeds, one schedule each. Zero means 100.
	Seeds int
	// Seed0 is the first swarm seed.
	Seed0 int64
	// Fuzz perturbs churn timings per swarm seed: event timestamps are
	// redrawn on a coarse grid so fail/restore/join/leave collide into racing
	// epochs.
	Fuzz bool
	// LiveEvery runs the script on the live runtime every n-th explored
	// schedule (0 disables). The live transport has no virtual clock, so
	// these runs sample real concurrency rather than replaying the delayed
	// schedule.
	LiveEvery int
	// Stats receives progress output when non-nil.
	Log func(format string, args ...any)
}

// Result summarizes one exploration.
type Result struct {
	// Runs is the number of schedules executed.
	Runs int
	// Delayed is the total number of packet crossings the swarm held.
	Delayed int
	// PacketTotals is the number of distinct scenario.Result.TotalPackets
	// the clean runs reached: how far apart in work their schedules were.
	PacketTotals int
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
