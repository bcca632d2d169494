// Command experiments regenerates the paper's evaluation figures as text
// tables:
//
//	-exp 1  → Figure 5   (time to quiescence and packets vs session count)
//	-exp 2  → Figure 6   (traffic by packet type across five dynamic phases)
//	-exp 3  → Figures 7+8 (error distributions and packets vs BFYZ/CG/RCP)
//	-exp 4  → topology churn (quiescence across link failures, restores and
//	          capacity changes — the dynamics dimension the paper left out)
//	-exp 5  → path re-optimization (pinned vs reoptimize after a
//	          fail → restore cycle: hops and rate regained vs the extra
//	          reconfiguration packets)
//	-exp internet → internet-scale join burst on a generated hierarchical
//	          topology (core/metro/edge tiers, power-law fringe); size it
//	          with -internet-size paper|metro|global and -sessions
//	-exp all → everything (except internet, which is opt-in)
//
// Defaults are laptop-scale; use -scale to multiply session counts toward
// the paper's numbers (e.g. -scale 10 runs Experiment 2 with 100,000 base
// sessions, the paper's exact setting).
//
// -workers N fans the sweeps across goroutines at each level: the selected
// experiments run concurrently, and within them the cells of experiments 1,
// 4 and 5 — (topology, scenario, session count or seed) — and experiment 3's
// protocols fan out again, so nested levels can briefly run more than N
// simulations at once. Every replication runs on its own engine with its own
// seeded RNG, so tables and CSVs are byte-identical to -workers 1.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"runtime"
	"runtime/pprof"

	"bneck/internal/control"
	"bneck/internal/exp"
	"bneck/internal/topology"
	"bneck/internal/trace"
)

// opener creates one CSV file by name.
type opener = func(name string) (io.WriteCloser, error)

// An experiment is one row of the command's table: run renders its table
// and returns its CSV writes (nil when it writes none); main times it,
// prints the table and the wall time rounded to round, and with -csv runs
// the writes.
type experiment struct {
	name  string
	round time.Duration
	run   func() (table string, csv func(open opener) error, err error)
}

// csvFile is the CSV write of an experiment with a single file.
func csvFile(name string, write func(io.Writer) error) func(opener) error {
	return func(open opener) error { return exp.WriteFile(open, name, write) }
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		which        = flag.String("exp", "all", "experiment to run: 1, 2, 3, 4, 5, internet, all")
		internetSize = flag.String("internet-size", "metro", "-exp internet topology: paper (~40 routers), metro (~1k), global (~10k)")
		sessions     = flag.Int("sessions", 0, "-exp internet session count (0 = two per router)")
		scale        = flag.Float64("scale", 1.0, "session-count multiplier toward paper scale")
		seed         = flag.Int64("seed", 1, "deterministic seed")
		big          = flag.Bool("big", false, "include the Big (11,000 router) topology in experiments 1, 4 and 5")
		counts       = flag.String("counts", "", "comma-separated session counts for experiment 1 (overrides defaults)")
		protocols    = flag.String("protocols", "bneck,bfyz", "comma-separated protocols for experiment 3 (bneck,bfyz,cg,rcp)")
		validate     = flag.Bool("validate", true, "cross-check B-Neck runs against the centralized oracle")
		quiet        = flag.Bool("q", false, "suppress progress lines")
		csvDir       = flag.String("csv", "", "also write figure data as CSV files into this directory")
		workers      = flag.Int("workers", 1, "parallel sweep workers per fan-out level (1 = serial, negative = GOMAXPROCS); output is identical at any setting")
		pathPolicy   = flag.String("path-policy", "pinned", "path re-optimization policy for experiment 4: pinned (historical behavior) or reoptimize (restores migrate sessions back onto shorter paths); experiment 5 always sweeps both")
		reoptStretch = flag.Float64("reopt-stretch", 0, "re-optimization stretch hysteresis for experiments 4 and 5 (≤ 1 = any strict improvement)")
		reoptMinGain = flag.Int("reopt-min-gain", 0, "re-optimization minimum hop gain for experiments 4 and 5 (≤ 1 = any strict improvement)")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile   = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()
	var cpuOut *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		cpuOut = f
	}
	if *workers == 0 {
		*workers = 1 // align with the config semantics: 0 and 1 are serial
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatalf("csv dir: %v", err)
		}
	}
	openCSV := func(name string) (io.WriteCloser, error) {
		return os.Create(filepath.Join(*csvDir, name))
	}

	progress := io.Writer(os.Stderr)
	if *quiet {
		progress = nil
	}

	polKind, ok := control.ParsePolicy(*pathPolicy)
	if !ok {
		log.Fatalf("unknown -path-policy %q (pinned, reoptimize)", *pathPolicy)
	}
	polCfg := control.Policy{Kind: polKind, Stretch: *reoptStretch, MinGain: *reoptMinGain}

	var exp1Counts []int
	if *counts != "" {
		for _, c := range strings.Split(*counts, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(c))
			if err != nil {
				log.Fatalf("bad -counts: %v", err)
			}
			exp1Counts = append(exp1Counts, n)
		}
	}
	internet := map[string]topology.InternetParams{
		"paper": topology.InternetPaper, "metro": topology.InternetMetro, "global": topology.InternetGlobal,
	}
	scaled := func(n int) int { return int(float64(n) * *scale) }

	table := []experiment{
		{"1", time.Second, func() (string, func(opener) error, error) {
			cfg := exp.DefaultExp1()
			cfg.Seed = *seed
			cfg.Validate = *validate
			cfg.Progress = progress
			cfg.Workers = *workers
			if *big {
				cfg.Sizes = append(cfg.Sizes, topology.Big)
			}
			if exp1Counts != nil {
				cfg.SessionCounts = exp1Counts
			} else {
				for i := range cfg.SessionCounts {
					cfg.SessionCounts[i] = scaled(cfg.SessionCounts[i])
				}
			}
			rows, err := exp.RunExperiment1(cfg)
			return exp.FormatExp1(rows) + "\n", csvFile("fig5.csv", func(w io.Writer) error {
				return exp.WriteExp1CSV(w, rows)
			}), err
		}},
		{"2", time.Second, func() (string, func(opener) error, error) {
			cfg := exp.DefaultExp2()
			cfg.Seed = *seed
			cfg.Validate = *validate
			cfg.Base = scaled(cfg.Base)
			cfg.Dyn = scaled(cfg.Dyn)
			cfg.Progress = progress
			res, err := exp.RunExperiment2(cfg)
			if err != nil {
				return "", nil, err
			}
			return exp.FormatExp2(res) + "\n", csvFile("fig6.csv", func(w io.Writer) error {
				return exp.WriteExp2CSV(w, res)
			}), nil
		}},
		{"3", time.Second, func() (string, func(opener) error, error) {
			cfg := exp.DefaultExp3()
			cfg.Seed = *seed
			cfg.Sessions = scaled(cfg.Sessions)
			cfg.Leavers = scaled(cfg.Leavers)
			cfg.Protocols = strings.Split(*protocols, ",")
			cfg.Progress = progress
			cfg.Workers = *workers
			res, err := exp.RunExperiment3(cfg)
			if err != nil {
				return "", nil, err
			}
			return exp.FormatExp3(res) + "\n", func(open opener) error { return exp.WriteAllCSV(res, open) }, nil
		}},
		{"4", time.Second, func() (string, func(opener) error, error) {
			cfg := exp.DefaultExp4()
			if *big {
				cfg.Sizes = append(cfg.Sizes, topology.Big)
			}
			cfg.Seeds = []int64{*seed, *seed + 1, *seed + 2}
			cfg.Validate = *validate
			cfg.Sessions = scaled(cfg.Sessions)
			cfg.Churn = scaled(cfg.Churn)
			cfg.Progress = progress
			cfg.Workers = *workers
			cfg.Policy = polCfg
			rows, err := exp.RunExperiment4(cfg)
			return exp.FormatExp4(rows) + "\n", csvFile("exp4_reconfig.csv", func(w io.Writer) error {
				return exp.WriteExp4CSV(w, rows)
			}), err
		}},
		{"5", time.Second, func() (string, func(opener) error, error) {
			cfg := exp.DefaultExp5()
			if *big {
				cfg.Sizes = append(cfg.Sizes, topology.Big)
			}
			cfg.Seeds = []int64{*seed, *seed + 1}
			cfg.Validate = *validate
			cfg.Sessions = scaled(cfg.Sessions)
			cfg.Policy = polCfg
			cfg.Progress = progress
			cfg.Workers = *workers
			rows, err := exp.RunExperiment5(cfg)
			return exp.FormatExp5(rows) + "\n", csvFile("exp5_reopt.csv", func(w io.Writer) error {
				return exp.WriteExp5CSV(w, rows)
			}), err
		}},
		{"internet", time.Millisecond, func() (string, func(opener) error, error) {
			params, ok := internet[*internetSize]
			if !ok {
				return "", nil, fmt.Errorf("unknown -internet-size %q (paper, metro, global)", *internetSize)
			}
			count := *sessions
			if count <= 0 {
				count = 2 * params.Routers()
			}
			topo, err := topology.GenerateInternet(params, *seed)
			if err != nil {
				return "", nil, err
			}
			row, err := exp.JoinBurst(topo, count, *seed, time.Millisecond, trace.MixedDemands(0.25, 1, 100), *validate)
			if err != nil {
				return "", nil, err
			}
			var b strings.Builder
			fmt.Fprintf(&b, "Internet-scale join burst — %s (%d routers, %d directed links)\n",
				params.Name, params.Routers(), topo.Graph.NumLinks())
			fmt.Fprintf(&b, "  sessions   : %d joined within 1ms\n", count)
			fmt.Fprintf(&b, "  quiescence : %v after %d packets, %d events\n", row.Quiescence, row.Packets, row.Events)
			if *validate {
				b.WriteString("  validation : rates equal the centralized max-min fair rates ✓\n")
			}
			return b.String(), nil, nil
		}},
	}
	var runs []experiment
	for _, e := range table {
		if e.name == *which || (*which == "all" && e.name != "internet") {
			runs = append(runs, e)
		}
	}
	if len(runs) == 0 {
		log.Fatalf("unknown -exp %q", *which)
	}

	// Each experiment is one job writing its table to its own buffer; jobs
	// run under the shared worker budget and the buffers print in table
	// order, so stdout is the same bytes regardless of -workers.
	outs := make([]bytes.Buffer, len(runs))
	err := exp.RunParallel(len(runs), *workers, func(i int) error {
		e := runs[i]
		start := time.Now()
		text, writeCSV, err := e.run()
		if err != nil {
			return fmt.Errorf("experiment %s: %v", e.name, err)
		}
		fmt.Fprintf(&outs[i], "%s(experiment %s wall time: %v)\n", text, e.name, time.Since(start).Round(e.round))
		if e.name != "3" { // experiment 3 has always ended without a blank line
			outs[i].WriteString("\n")
		}
		if *csvDir == "" || writeCSV == nil {
			return nil
		}
		return writeCSV(openCSV)
	})
	for i := range outs {
		os.Stdout.Write(outs[i].Bytes())
	}
	// Flush profiles before any fatal exit so failed runs still profile.
	if cpuOut != nil {
		pprof.StopCPUProfile()
		cpuOut.Close()
	}
	if *memProfile != "" {
		f, ferr := os.Create(*memProfile)
		if ferr != nil {
			log.Fatalf("memprofile: %v", ferr)
		}
		runtime.GC() // materialize the final live set
		if perr := pprof.WriteHeapProfile(f); perr != nil {
			log.Fatalf("memprofile: %v", perr)
		}
		f.Close()
	}
	if err != nil {
		log.Fatal(err)
	}
}
