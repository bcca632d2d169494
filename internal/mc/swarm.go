package mc

import (
	"math/rand"

	"bneck/internal/sim"
)

// randomPicker draws every tie-break uniformly from the enabled set. Each
// swarm seed owns one rng, so a run is reproducible from (script, fuzz seed,
// swarm seed) alone — though violating runs are still serialized as explicit
// pick vectors, which survive engine changes better than rng state.
type randomPicker struct{ rng *rand.Rand }

func (r *randomPicker) pick(depth int, cands []sim.Choice) int {
	return r.rng.Intn(len(cands))
}

// Explore runs one randomized schedule per seed and reports what it found. With
// cfg.Fuzz set, each seed also perturbs the script's churn timeline before
// running, so the swarm searches the product of (event orderings × churn
// timings). A nil Result.Violation means every explored schedule satisfied
// all invariants.
func Explore(m *Model, cfg Config) (*Result, error) {
	seeds := cfg.Seeds
	if seeds <= 0 {
		seeds = 100
	}
	if cfg.Log == nil {
		cfg.Log = func(string, ...any) {}
	}
	res := &Result{}
	for i := 0; i < seeds; i++ {
		seed := cfg.Seed0 + int64(i)
		run := m
		if cfg.Fuzz {
			fm, err := Fuzz(m, seed)
			if err != nil {
				return nil, err
			}
			run = fm
		}
		p := &randomPicker{rng: rand.New(rand.NewSource(seed))}
		picks, v := runOnce(run, p)
		res.Runs++
		res.ChoicePoints += len(picks)
		if v != nil {
			res.Violation = v
			return res, nil
		}
		if cfg.LiveEvery > 0 && res.Runs%cfg.LiveEvery == 0 {
			res.LiveRuns++
			if lv := runLive(run, picks); lv != nil {
				res.Violation = lv
				return res, nil
			}
		}
		if res.Runs%50 == 0 {
			cfg.Log("mc: swarm %d/%d seeds, %d choice points", res.Runs, seeds, res.ChoicePoints)
		}
	}
	return res, nil
}
