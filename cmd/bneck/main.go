// Command bneck runs one B-Neck scenario on a generated transit-stub
// topology and prints the resulting max-min fair rate table, the time to
// quiescence, and the control-traffic totals — a quick way to poke at the
// algorithm.
//
// Usage:
//
//	bneck [-size small|medium|big] [-scenario lan|wan] [-internet] [-sessions N]
//	      [-demand-cap P] [-seed S] [-v] [-live]
//	bneck -run-scenario <script> [-live] [-path-policy pinned|reoptimize]
//
// The join burst is a generated scenario script (exp.BurstScript):
// Experiment 1's cell with a quarter of the demands capped, one after block
// of joins validated against the water-filling oracle. Without -live it runs
// on the serial discrete-event simulator, and its wall time covers the
// topology build, the run and the validation. With -live the same script
// runs on the concurrent actor runtime instead (one mailbox per task, no
// simulator): quiescence becomes wall-clock termination.
//
// With -run-scenario the command executes a declarative event script — one
// timeline mixing session churn with link failures, restorations and
// capacity changes — validating the allocation against the water-filling
// oracle after every epoch. See docs/SCENARIOS.md for the complete script
// reference and examples/scenarios/ for ready-made scripts.
//
// -internet swaps the transit-stub generator for the hierarchical
// internet-scale one (core/metro/edge tiers, power-law fringe,
// geography-derived latency bands): -size maps to the paper, metro and
// global rungs (~40/~1k/~10k routers) and -scenario is ignored.
//
// -path-policy applies to -run-scenario only (a join burst has no restore or
// capacity event to sweep on): it replaces the script's `policy` directive,
// and unset keeps it.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"bneck/internal/control"
	"bneck/internal/exp"
	"bneck/internal/rate"
	"bneck/internal/scenario"
	"bneck/internal/topology"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bneck: ")

	var (
		sizeName   = flag.String("size", "small", "topology size: small, medium, big")
		scenName   = flag.String("scenario", "lan", "propagation scenario: lan, wan (ignored with -internet)")
		internet   = flag.Bool("internet", false, "generate a hierarchical internet-scale topology (core/metro/edge tiers, power-law fringe) instead of transit-stub")
		sessions   = flag.Int("sessions", 100, "number of sessions to join")
		demandCap  = flag.Float64("demand-cap", 0.25, "fraction of sessions with a finite demand")
		seed       = flag.Int64("seed", 1, "deterministic seed")
		verbose    = flag.Bool("v", false, "print every session's rate")
		liveMode   = flag.Bool("live", false, "run on the concurrent actor runtime instead of the simulator")
		scenFile   = flag.String("run-scenario", "", "execute a declarative scenario script (full DSL reference: docs/SCENARIOS.md)")
		pathPolicy = flag.String("path-policy", "", "with -run-scenario, the path re-optimization policy: pinned or reoptimize (migrate sessions back onto shorter paths after restores); replaces the script's `policy` directive")
	)
	flag.Parse()

	var policy *control.Policy
	if *pathPolicy != "" {
		p, ok := control.ParsePolicy(*pathPolicy)
		if !ok {
			log.Fatalf("unknown -path-policy %q (pinned, reoptimize)", *pathPolicy)
		}
		policy = &p
	}

	if *scenFile != "" {
		runScenario(*scenFile, *liveMode, policy)
		return
	}

	size, err := topology.ScaleByName(*sizeName)
	if err != nil {
		log.Fatal(err)
	}
	scen := topology.LAN
	if !*internet {
		if scen, err = topology.ScenarioByName(*scenName); err != nil {
			log.Fatal(err)
		}
	}
	src, topo, err := exp.BurstScript(size.Stub, scen, *internet, *seed, *sessions, exp.MixedDemands(*demandCap, 1, 100))
	if err != nil {
		log.Fatal(err)
	}
	sc, err := scenario.Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Now()
	res, err := run(sc, *liveMode)
	if err != nil {
		log.Fatal(err)
	}
	wallDur := time.Since(wall)
	row := exp.BurstRow(res, *sessions)

	var desc string
	switch t := topo.(type) {
	case *topology.Network:
		desc = fmt.Sprintf("%s (%d routers), %s scenario", t.Params.Name, t.Params.Routers(), t.Scenario)
	case *topology.Internet:
		desc = fmt.Sprintf("%s (%d routers), internet hierarchy", t.Params.Name, t.Params.Routers())
	}
	joined := "within 1ms"
	quiescence := fmt.Sprintf("%v (virtual), %v (wall)", row.Quiescence, wallDur.Round(time.Millisecond))
	if *liveMode {
		desc, joined = desc+", live actor runtime", "in one burst"
		quiescence = fmt.Sprintf("detected by termination (%v wall, set-up included)", wallDur.Round(time.Microsecond))
	}
	fmt.Printf("topology   : %s\n", desc)
	fmt.Printf("sessions   : %d joined %s (demand-capped fraction %.2f)\n", *sessions, joined, *demandCap)
	fmt.Printf("quiescence : %s\n", quiescence)
	fmt.Printf("packets    : %d total, %.1f per session\n", row.Packets, row.PacketsPerSession)
	fmt.Println("validation : all rates equal the centralized max-min fair rates ✓")

	if *verbose {
		demand := make(map[string]rate.Rate, len(sc.Sessions))
		for _, ev := range sc.Events {
			demand[ev.Session] = ev.Demand // the burst's joins
		}
		fmt.Printf("\n%-8s %-12s %-10s %s\n", "session", "rate (Mbps)", "path len", "demand")
		for _, ep := range res.Epochs { // the burst's one epoch, if any session joined
			for k, s := range ep.Sessions {
				d := "∞"
				if dm := demand[sc.Sessions[k].Name]; !dm.IsInf() {
					d = fmt.Sprintf("%.0f Mbps", dm.Float64()/1e6)
				}
				// Sessions take IDs from 1 in declaration order.
				fmt.Printf("%-8d %-12.2f %-10d %s\n", k+1, s.Rate.Float64()/1e6, len(s.Path), d)
			}
		}
	}
}

// run executes a parsed script on the simulator, or with live on the actor
// runtime.
func run(sc *scenario.Script, live bool) (*scenario.Result, error) {
	if live {
		return scenario.RunLive(sc)
	}
	return scenario.RunSim(sc)
}

// runScenario parses and executes a scenario script, printing the per-epoch
// re-quiescence table. Every epoch is validated against the oracle. A
// non-nil policy replaces the script's `policy` directive.
func runScenario(path string, liveMode bool, policy *control.Policy) {
	src, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	sc, err := scenario.Parse(string(src))
	if err != nil {
		log.Fatal(err)
	}
	if policy != nil {
		sc.Policy = *policy
	}
	wall := time.Now()
	res, err := run(sc, liveMode)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario   : %s (%d sessions, %d events, %s transport)\n",
		path, len(sc.Sessions), len(sc.Events), res.Transport)
	fmt.Printf("wall time  : %v\n\n", time.Since(wall).Round(time.Millisecond))
	scenario.Format(os.Stdout, res)
}
