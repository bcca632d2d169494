// Command bneck runs one B-Neck scenario on a generated transit-stub
// topology and prints the resulting max-min fair rate table, the time to
// quiescence, and the control-traffic totals — a quick way to poke at the
// algorithm.
//
// Usage:
//
//	bneck [-size small|medium|big] [-scenario lan|wan] [-internet] [-sessions N]
//	      [-demand-cap P] [-seed S] [-validate] [-v] [-live]
//	bneck -run-scenario <script> [-live] [-path-policy pinned|reoptimize]
//
// Without -live every run executes on the serial discrete-event simulator:
// the join burst is Experiment 1's cell (exp.JoinBurst) with a quarter of
// the demands capped, and its wall time covers placement and validation.
// With -live the protocol runs on the concurrent actor runtime instead (one
// mailbox per task, no simulator): quiescence becomes wall-clock
// termination and the scenario exercises real parallelism.
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
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"bneck/internal/control"
	"bneck/internal/exp"
	"bneck/internal/live"
	"bneck/internal/rate"
	"bneck/internal/scenario"
	"bneck/internal/topology"
	"bneck/internal/trace"
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
		validate   = flag.Bool("validate", true, "cross-check against the centralized oracle")
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

	if *sessions < 0 {
		log.Fatalf("negative -sessions %d", *sessions)
	}
	topo, err := topology.GenerateByName(*sizeName, *scenName, *internet, *seed)
	if err != nil {
		log.Fatal(err)
	}
	var topoDesc string
	switch t := topo.(type) {
	case *topology.Network:
		topoDesc = fmt.Sprintf("%s (%d routers), %s scenario", t.Params.Name, t.Params.Routers(), t.Scenario)
	case *topology.Internet:
		topoDesc = fmt.Sprintf("%s (%d routers), internet hierarchy", t.Params.Name, t.Params.Routers())
	}

	if *liveMode {
		runLive(topo, topoDesc, *sessions, *demandCap, *seed, *validate)
		return
	}
	wall := time.Now()
	row, net, err := exp.JoinBurst(topo, *sessions, *seed, time.Millisecond, trace.MixedDemands(*demandCap, 1, 100), *validate)
	if err != nil {
		log.Fatal(err)
	}
	wallDur := time.Since(wall)

	fmt.Printf("topology   : %s\n", topoDesc)
	fmt.Printf("sessions   : %d joined within 1ms (demand-capped fraction %.2f)\n", *sessions, *demandCap)
	fmt.Printf("quiescence : %v (virtual), %v (wall)\n", row.Quiescence, wallDur.Round(time.Millisecond))
	fmt.Printf("packets    : %d total, %.1f per session\n", row.Packets, row.PacketsPerSession)
	if *validate {
		fmt.Println("validation : all rates equal the centralized max-min fair rates ✓")
	}

	if *verbose {
		fmt.Printf("\n%-8s %-12s %-10s %s\n", "session", "rate (Mbps)", "path len", "demand")
		all := net.Sessions()
		sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
		for _, s := range all {
			r, _ := s.Rate()
			d := "∞"
			if !s.Demand().IsInf() {
				d = fmt.Sprintf("%.0f Mbps", s.Demand().Float64()/1e6)
			}
			fmt.Printf("%-8d %-12.2f %-10d %s\n", s.ID, r.Float64()/1e6, len(s.Path), d)
		}
	}
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
	var res *scenario.Result
	wall := time.Now()
	if liveMode {
		res, err = scenario.RunLive(sc)
	} else {
		res, err = scenario.RunSim(sc)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario   : %s (%d sessions, %d events, %s transport)\n",
		path, len(sc.Sessions), len(sc.Events), res.Transport)
	fmt.Printf("wall time  : %v\n\n", time.Since(wall).Round(time.Millisecond))
	scenario.Format(os.Stdout, res)
}

// runLive executes the scenario on the goroutine/actor runtime: joins fire
// from concurrent goroutines and quiescence is detected by termination.
func runLive(topo topology.Hosted, desc string, sessions int, demandCap float64, seed int64, validate bool) {
	hosts := topo.AddHosts(2 * sessions)
	rt := live.New(topo.Topology())
	defer rt.Close()

	rng := rand.New(rand.NewSource(seed + 7))
	demandFn := trace.MixedDemands(demandCap, 1, 100)
	type sess struct {
		s      *live.Session
		demand rate.Rate
	}
	all := make([]sess, sessions)
	for i := 0; i < sessions; i++ {
		src := hosts[i]
		dst := hosts[rng.Intn(len(hosts))]
		for dst == src {
			dst = hosts[rng.Intn(len(hosts))]
		}
		p, err := rt.HostPath(src, dst)
		if err != nil {
			log.Fatal(err)
		}
		s, err := rt.NewSession(p)
		if err != nil {
			log.Fatal(err)
		}
		all[i] = sess{s: s, demand: demandFn(rng)}
	}

	wall := time.Now()
	var wg sync.WaitGroup
	for _, x := range all {
		wg.Add(1)
		go func(x sess) {
			defer wg.Done()
			x.s.Join(x.demand)
		}(x)
	}
	// All joins must be enqueued before termination detection is meaningful;
	// Join returns once the request is in the source actor's mailbox.
	wg.Wait()
	rt.WaitQuiescent()
	wallDur := time.Since(wall)

	fmt.Printf("topology   : %s, live actor runtime\n", desc)
	fmt.Printf("sessions   : %d joined from concurrent goroutines\n", sessions)
	fmt.Printf("quiescence : %v (wall clock, detected by termination)\n", wallDur.Round(time.Microsecond))

	if validate {
		if err := rt.Validate(); err != nil {
			log.Fatalf("validation FAILED: %v", err)
		}
		fmt.Println("validation : all rates equal the centralized max-min fair rates ✓")
	}
}
