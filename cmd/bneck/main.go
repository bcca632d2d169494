// Command bneck runs one B-Neck scenario on a generated transit-stub
// topology and prints the resulting max-min fair rate table, the time to
// quiescence, and the control-traffic totals — a quick way to poke at the
// algorithm.
//
// Usage:
//
//	bneck [-size small|medium|big] [-scenario lan|wan] [-internet] [-sessions N]
//	      [-demand-cap P] [-seed S] [-path-policy pinned|reoptimize]
//	      [-validate] [-v] [-live]
//	bneck -run-scenario <script> [-live] [-path-policy pinned|reoptimize]
//
// Without -live every run executes on the serial discrete-event simulator.
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
// geography-derived latency bands): -size maps to ~40/~1k/~10k routers and
// -scenario is ignored.
//
// -path-policy selects the path re-optimization policy (pinned, the
// default, or reoptimize — migrate sessions back onto shorter paths after
// restores). With -run-scenario, each of -path-policy, -reopt-stretch and
// -reopt-min-gain overrides just its own field of the script's `policy`
// directive; unset flags keep the script's settings.
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

	"bneck/internal/exp"
	"bneck/internal/live"
	"bneck/internal/network"
	"bneck/internal/policy"
	"bneck/internal/rate"
	"bneck/internal/scenario"
	"bneck/internal/sim"
	"bneck/internal/topology"
	"bneck/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bneck: ")

	var (
		sizeName     = flag.String("size", "small", "topology size: small, medium, big")
		scenName     = flag.String("scenario", "lan", "propagation scenario: lan, wan (ignored with -internet)")
		internet     = flag.Bool("internet", false, "generate a hierarchical internet-scale topology (core/metro/edge tiers, power-law fringe) instead of transit-stub")
		sessions     = flag.Int("sessions", 100, "number of sessions to join")
		demandCap    = flag.Float64("demand-cap", 0.25, "fraction of sessions with a finite demand")
		seed         = flag.Int64("seed", 1, "deterministic seed")
		validate     = flag.Bool("validate", true, "cross-check against the centralized oracle")
		verbose      = flag.Bool("v", false, "print every session's rate")
		liveMode     = flag.Bool("live", false, "run on the concurrent actor runtime instead of the simulator")
		scenFile     = flag.String("run-scenario", "", "execute a declarative scenario script (full DSL reference: docs/SCENARIOS.md)")
		pathPolicy   = flag.String("path-policy", "", "path re-optimization policy: pinned or reoptimize (migrate sessions back onto shorter paths after restores); overrides a scenario script's `policy` directive, keeping the script's hysteresis knobs")
		reoptStretch = flag.Float64("reopt-stretch", 0, "reoptimize hysteresis: migrate only when the current path exceeds stretch × the best path (0 keeps the script/default setting)")
		reoptMinGain = flag.Int("reopt-min-gain", 0, "reoptimize hysteresis: migrate only when at least this many hops are saved (0 keeps the script/default setting)")
	)
	flag.Parse()

	if *pathPolicy != "" {
		if _, ok := policy.Parse(*pathPolicy); !ok {
			log.Fatalf("unknown -path-policy %q (pinned, reoptimize)", *pathPolicy)
		}
	}
	// overlayPolicy applies each policy flag that was actually set on top of
	// base (a scenario script's `policy` directive, or the default pinned
	// policy) — so `-reopt-stretch 5` alone tightens a script's hysteresis
	// without touching its kind, and `-path-policy reoptimize` alone keeps
	// the script's knobs.
	overlayPolicy := func(base policy.Config) policy.Config {
		if *pathPolicy != "" {
			base.Kind, _ = policy.Parse(*pathPolicy)
		}
		if *reoptStretch > 0 {
			base.Stretch = *reoptStretch
		}
		if *reoptMinGain > 0 {
			base.MinGain = *reoptMinGain
		}
		return base
	}

	if *scenFile != "" {
		runScenario(*scenFile, *liveMode, overlayPolicy)
		return
	}

	var (
		topo     topology.Hosted
		topoDesc string
	)
	cfg := network.DefaultConfig()
	if *internet {
		params, err := internetBySize(*sizeName)
		if err != nil {
			log.Fatal(err)
		}
		it, err := topology.GenerateInternet(params, *seed)
		if err != nil {
			log.Fatal(err)
		}
		topo = it
		topoDesc = fmt.Sprintf("%s (%d routers), internet hierarchy", params.Name, params.Routers())
	} else {
		size, err := sizeByName(*sizeName)
		if err != nil {
			log.Fatal(err)
		}
		scen, err := scenarioByName(*scenName)
		if err != nil {
			log.Fatal(err)
		}
		ts, err := topology.Generate(size, scen, *seed)
		if err != nil {
			log.Fatal(err)
		}
		topo = ts
		topoDesc = fmt.Sprintf("%s (%d routers), %s scenario", size.Name, size.Routers(), scen)
	}

	if *liveMode {
		runLive(topo, topoDesc, *sessions, *demandCap, *seed, *validate, overlayPolicy(policy.Config{}))
		return
	}
	cfg.PathPolicy = overlayPolicy(cfg.PathPolicy)
	net := network.New(topo.Topology(), sim.New(), cfg)
	ss, err := exp.PlaceSessions(topo, net, *sessions)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(*seed + 7))
	demand := trace.MixedDemands(*demandCap, 1, 100)
	for _, ev := range trace.Joins(0, *sessions, 0, time.Millisecond, demand, rng) {
		net.ScheduleJoin(ss[ev.Session], ev.At, ev.Demand)
	}

	wall := time.Now()
	q := net.Run()
	wallDur := time.Since(wall)

	if *validate {
		if err := net.Validate(); err != nil {
			log.Fatalf("validation FAILED: %v", err)
		}
	}

	fmt.Printf("topology   : %s\n", topoDesc)
	fmt.Printf("sessions   : %d joined within 1ms (demand-capped fraction %.2f)\n", *sessions, *demandCap)
	fmt.Printf("quiescence : %v (virtual), %v (wall)\n", q, wallDur.Round(time.Millisecond))
	fmt.Printf("packets    : %d total, %.1f per session\n",
		net.Stats().Total(), float64(net.Stats().Total())/float64(*sessions))
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
	os.Exit(0)
}

// runScenario parses and executes a scenario script, printing the per-epoch
// re-quiescence table. Every epoch is validated against the oracle.
// overlay applies the command-line policy flags on top of the script's
// `policy` directive.
func runScenario(path string, liveMode bool, overlay func(policy.Config) policy.Config) {
	src, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	sc, err := scenario.Parse(string(src))
	if err != nil {
		log.Fatal(err)
	}
	sc.Policy = overlay(sc.Policy)
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
func runLive(topo topology.Hosted, desc string, sessions int, demandCap float64, seed int64, validate bool, pol policy.Config) {
	hosts := topo.AddHosts(2 * sessions)
	g := topo.Topology()
	rt := live.New(g)
	defer rt.Close()
	rt.SetPathPolicy(pol)

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

func sizeByName(name string) (topology.Params, error) {
	switch name {
	case "small":
		return topology.Small, nil
	case "medium":
		return topology.Medium, nil
	case "big":
		return topology.Big, nil
	default:
		return topology.Params{}, fmt.Errorf("unknown size %q (small, medium, big)", name)
	}
}

func internetBySize(name string) (topology.InternetParams, error) {
	switch name {
	case "small":
		return topology.InternetPaper, nil
	case "medium":
		return topology.InternetMetro, nil
	case "big":
		return topology.InternetGlobal, nil
	default:
		return topology.InternetParams{}, fmt.Errorf("unknown size %q (small, medium, big)", name)
	}
}

func scenarioByName(name string) (topology.Scenario, error) {
	switch name {
	case "lan":
		return topology.LAN, nil
	case "wan":
		return topology.WAN, nil
	default:
		return 0, fmt.Errorf("unknown scenario %q (lan, wan)", name)
	}
}
