// Command mc samples the quiescence theorem over event interleavings: it
// loads (or synthesizes) a scenario, draws the simulator's cross-node
// tie-breaks from a seeded swarm with the internal/mc harness, and checks
// every explored schedule against the quiescence-bound, oracle-exactness,
// stale-incarnation and (sampled) live-Validate invariants. The exhaustive
// check of the protocol in the paper's own model is internal/control's
// TestExploreProtocol.
//
// Usage:
//
//	mc -scenario examples/scenarios/failover.bneck -seeds 2000
//	mc -synth metro -sessions 6 -churn 5 -seeds 200 -fuzz
//	mc -scenario s.bneck -replay violation.trace             # re-run a trace
//
// Flags:
//
//	-scenario path       scenario script to check (exclusive with -synth)
//	-synth rung          synthesize a churn workload on an internet rung
//	                     (paper, metro, global; see -sessions/-churn/-synth-seed)
//	-sessions n          synthesized session count (default 4)
//	-churn n             synthesized churn rounds (default 4)
//	-synth-seed n        synthesis seed (default 1)
//	-seeds n             swarm seed count, one schedule each (default 100)
//	-seed0 n             first swarm seed (default 1)
//	-fuzz                perturb churn timings per swarm seed
//	-live-every n        run the live runtime every n-th schedule (0 = off)
//	-bound-factor f      slack multiplier on the structural quiescence bound
//	                     (default 8)
//	-replay path         replay a recorded choice trace instead of exploring
//	-no-minimize         keep a violating trace as found (skip ddmin)
//	-out path            violating trace file (default mc-violation.trace)
//	-v                   progress output
//
// On a violation, mc writes the (minimized) choice trace to -out and exits 1;
// replaying it with -replay reproduces the failure deterministically.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"bneck/internal/mc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mc: ")

	var (
		scenarioPath = flag.String("scenario", "", "scenario script to check")
		synth        = flag.String("synth", "", "synthesize a workload on an internet rung (paper, metro, global)")
		sessions     = flag.Int("sessions", 4, "synthesized session count")
		churn        = flag.Int("churn", 4, "synthesized churn rounds")
		synthSeed    = flag.Int64("synth-seed", 1, "synthesis seed")
		seeds        = flag.Int("seeds", 100, "swarm seed count, one schedule each")
		seed0        = flag.Int64("seed0", 1, "first swarm seed")
		fuzz         = flag.Bool("fuzz", false, "perturb churn timings per swarm seed")
		liveEvery    = flag.Int("live-every", 0, "run the live runtime every n-th schedule (0 = off)")
		boundFactor  = flag.Float64("bound-factor", mc.DefaultBoundFactor, "slack multiplier on the quiescence bound")
		replayPath   = flag.String("replay", "", "replay a recorded choice trace")
		noMinimize   = flag.Bool("no-minimize", false, "keep a violating trace as found")
		outPath      = flag.String("out", "mc-violation.trace", "violating trace file")
		verbose      = flag.Bool("v", false, "progress output")
	)
	flag.Parse()

	m, err := loadModel(*scenarioPath, *synth, *sessions, *churn, *synthSeed, *boundFactor)
	if err != nil {
		log.Fatal(err)
	}

	if *replayPath != "" {
		tr, err := mc.LoadTrace(*replayPath)
		if err != nil {
			log.Fatal(err)
		}
		if tr.FuzzSeed != 0 {
			if m, err = mc.Fuzz(m, tr.FuzzSeed); err != nil {
				log.Fatal(err)
			}
		}
		v, err := mc.Replay(m, tr)
		if err != nil {
			log.Fatal(err)
		}
		if v != nil {
			log.Printf("trace reproduces: %v", v)
			os.Exit(1)
		}
		fmt.Println("trace replays clean: every invariant holds on this schedule")
		return
	}

	cfg := mc.Config{Seeds: *seeds, Seed0: *seed0, Fuzz: *fuzz, LiveEvery: *liveEvery}
	if *verbose {
		cfg.Log = log.Printf
	}
	res, err := mc.Explore(m, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("explored %d schedules (%d choice points, %d live runs)\n",
		res.Runs, res.ChoicePoints, res.LiveRuns)
	if res.Violation == nil {
		fmt.Println("no invariant violations")
		return
	}

	v := res.Violation
	log.Printf("%v", v)
	tr := v.Trace
	if !*noMinimize {
		min, replays, err := mc.Minimize(m, tr, v.Kind)
		if err != nil {
			log.Printf("minimization failed (keeping original trace): %v", err)
		} else {
			log.Printf("minimized %d -> %d deviations in %d replays",
				tr.Deviations(), min.Deviations(), replays)
			tr = min
		}
	}
	if err := tr.WriteFile(*outPath); err != nil {
		log.Fatal(err)
	}
	log.Printf("choice trace written to %s (replay with -replay)", *outPath)
	os.Exit(1)
}

func loadModel(path, synth string, sessions, churn int, seed int64, factor float64) (*mc.Model, error) {
	switch {
	case path != "" && synth != "":
		return nil, fmt.Errorf("-scenario and -synth are mutually exclusive")
	case path != "":
		return mc.FromFile(path, factor)
	case synth != "":
		return mc.Synthesize(synth, sessions, churn, seed, factor)
	default:
		return nil, fmt.Errorf("one of -scenario or -synth is required")
	}
}
