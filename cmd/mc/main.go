// Command mc samples the quiescence theorem over event interleavings: it
// loads (or synthesizes) a scenario, holds the simulator's packets on their
// FIFO wires for times a seeded swarm draws (the internal/mc harness, up to
// the script's per-hop round trip), and checks every explored schedule
// against the quiescence-bound, oracle-exactness, stale-incarnation and
// (sampled) live-Validate invariants. The exhaustive check of the protocol
// in the paper's own model is internal/control's TestExploreProtocol.
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
//	-replay path         replay a recorded delay trace instead of exploring
//	-no-minimize         keep a violating trace as found (skip ddmin)
//	-out path            violating trace file (default mc-violation.trace)
//	-v                   progress output
//
// On a violation, mc writes the (minimized) delay trace to -out and exits 1;
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
		replayPath   = flag.String("replay", "", "replay a recorded delay trace (bneck-mc trace v2)")
		noMinimize   = flag.Bool("no-minimize", false, "keep a violating trace as found")
		outPath      = flag.String("out", "mc-violation.trace", "violating trace file")
		verbose      = flag.Bool("v", false, "progress output")
	)
	flag.Parse()

	m, err := loadModel(*scenarioPath, *synth, *sessions, *churn, *synthSeed)
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

	fmt.Printf("explored %d schedules (%d delayed crossings, %d distinct packet totals, %d live runs)\n",
		res.Runs, res.Delayed, res.PacketTotals, res.LiveRuns)
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
	log.Printf("delay trace written to %s (replay with -replay)", *outPath)
	os.Exit(1)
}

func loadModel(path, synth string, sessions, churn int, seed int64) (*mc.Model, error) {
	switch {
	case path != "" && synth != "":
		return nil, fmt.Errorf("-scenario and -synth are mutually exclusive")
	case path != "":
		return mc.FromFile(path)
	case synth != "":
		return mc.Synthesize(synth, sessions, churn, seed)
	default:
		return nil, fmt.Errorf("one of -scenario or -synth is required")
	}
}
