package mc

import (
	"fmt"
	"math/rand"
	"time"

	"bneck/internal/scenario"
)

// fuzzGrid is the timing grid the churn fuzzer snaps perturbed events to.
// A coarse grid makes timestamp collisions likely, which is the point:
// events that collide land in one epoch and their cascades race, and those
// racing epochs are where the quiescence and stale-incarnation invariants
// have historically broken.
const fuzzGrid = 5 * time.Millisecond

// fuzzAttempts bounds the redraw loop: a perturbation that reorders the
// timeline illegally (leave before join, double link failure) is discarded
// and redrawn, exactly like a rejected hand-written script.
const fuzzAttempts = 32

// Fuzz derives a model whose churn timings are perturbed deterministically
// from seed: every event after t=0 outside after blocks is jittered by up to
// two grid cells and snapped to the grid; the t=0 epoch (the initial
// population) and the blocks stay.
// Scripted `expect` assertions are dropped — golden values for the original
// timeline, meaningless after perturbation — so fuzzed runs are judged
// purely by the schedule-independent invariants (quiescence bound, oracle
// exactness, stale incarnations, Validate).
func Fuzz(m *Model, seed int64) (*Model, error) {
	if seed == 0 {
		return nil, fmt.Errorf("mc: fuzz seed must be nonzero (zero marks an unfuzzed trace)")
	}
	rng := rand.New(rand.NewSource(seed))
	for attempt := 0; attempt < fuzzAttempts; attempt++ {
		// Re-parse for a deep copy: Script holds slices the runner must not
		// share between the base and perturbed timelines.
		sc, err := scenario.Parse(m.Source)
		if err != nil {
			return nil, err
		}
		events := sc.Events[:0]
		for _, ev := range sc.Events {
			switch ev.Op {
			case scenario.OpExpectRate, scenario.OpExpectMigrated,
				scenario.OpExpectStranded, scenario.OpExpectReoptimized:
				continue
			}
			if ev.At > 0 && ev.Block == 0 {
				jitter := time.Duration(rng.Intn(5)-2) * fuzzGrid
				at := ev.At + jitter
				at = (at / fuzzGrid) * fuzzGrid
				if at < fuzzGrid {
					at = fuzzGrid
				}
				ev.At = at
			}
			events = append(events, ev)
		}
		sc.Events = events
		if err := sc.Recheck(); err != nil {
			continue
		}
		return &Model{
			Script:   sc,
			Source:   m.Source,
			Hash:     m.Hash,
			Deadline: m.Deadline,
			FuzzSeed: seed,
		}, nil
	}
	return nil, fmt.Errorf("mc: fuzz seed %d: no valid perturbation in %d attempts", seed, fuzzAttempts)
}
