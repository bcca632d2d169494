package mc

import (
	"math/rand"
)

// Explore runs one randomly delayed schedule per seed and reports what it
// found. Each seed owns one rng for its holds, so a run is reproducible from
// (script, fuzz seed, swarm seed) alone — though violating runs are still
// serialized as explicit hold vectors, which survive engine changes better
// than rng state. With cfg.Fuzz set, each seed also perturbs the script's
// churn timeline before running, so the swarm searches the product of
// (wire delays × churn timings). A nil Result.Violation means every
// explored schedule satisfied all invariants.
func Explore(m *Model, cfg Config) (*Result, error) {
	seeds := cfg.Seeds
	if seeds <= 0 {
		seeds = 100
	}
	if cfg.Log == nil {
		cfg.Log = func(string, ...any) {}
	}
	res := &Result{}
	totals := map[uint64]bool{}
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
		h := &holds{rng: rand.New(rand.NewSource(seed)), max: run.Hold}
		sr, v := runOnce(run, h)
		res.Runs++
		res.Delayed += deviations(h.drawn)
		if v != nil {
			res.Violation = v
			return res, nil
		}
		totals[sr.TotalPackets] = true
		res.PacketTotals = len(totals)
		if cfg.LiveEvery > 0 && res.Runs%cfg.LiveEvery == 0 {
			res.LiveRuns++
			if lv := runLive(run, h.drawn); lv != nil {
				res.Violation = lv
				return res, nil
			}
		}
		if res.Runs%50 == 0 {
			cfg.Log("mc: swarm %d/%d seeds, %d delayed crossings, %d packet totals",
				res.Runs, seeds, res.Delayed, res.PacketTotals)
		}
	}
	return res, nil
}
