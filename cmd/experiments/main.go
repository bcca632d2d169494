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
// experiments run concurrently, and within them experiment 1's
// (topology, scenario, session count) cells and experiment 3's protocols
// fan out again, so nested levels can briefly run more than N simulations
// at once. Every replication runs on its own engine with its own seeded
// RNG, so tables and CSVs are byte-identical to -workers 1.
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

	"bneck/internal/exp"
	"bneck/internal/policy"
	"bneck/internal/topology"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		which        = flag.String("exp", "all", "experiment to run: 1, 2, 3, 4, 5, internet, all")
		internetSize = flag.String("internet-size", "metro", "-exp internet topology: paper (~40 routers), metro (~1k), global (~10k)")
		sessions     = flag.Int("sessions", 0, "-exp internet session count (0 = two per router)")
		scale        = flag.Float64("scale", 1.0, "session-count multiplier toward paper scale")
		seed         = flag.Int64("seed", 1, "deterministic seed")
		big          = flag.Bool("big", false, "include the Big (11,000 router) topology in experiment 1")
		counts       = flag.String("counts", "", "comma-separated session counts for experiment 1 (overrides defaults)")
		protocols    = flag.String("protocols", "bneck,bfyz", "comma-separated protocols for experiment 3 (bneck,bfyz,cg,rcp)")
		validate     = flag.Bool("validate", true, "cross-check B-Neck runs against the centralized oracle")
		quiet        = flag.Bool("q", false, "suppress progress lines")
		csvDir       = flag.String("csv", "", "also write figure data as CSV files into this directory")
		workers      = flag.Int("workers", 1, "parallel sweep workers per fan-out level (1 = serial, negative = GOMAXPROCS); output is identical at any setting")
		exp4Paper    = flag.Bool("exp4-paper", false, "run experiment 4 at paper size (Medium+Big topologies, WAN failure sweep); combine with -workers")
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

	polKind, ok := policy.Parse(*pathPolicy)
	if !ok {
		log.Fatalf("unknown -path-policy %q (pinned, reoptimize)", *pathPolicy)
	}
	polCfg := policy.Config{Kind: polKind, Stretch: *reoptStretch, MinGain: *reoptMinGain}

	runs := map[string]bool{}
	switch *which {
	case "all":
		runs["1"], runs["2"], runs["3"], runs["4"], runs["5"] = true, true, true, true, true
	case "1", "2", "3", "4", "5", "internet":
		runs[*which] = true
	default:
		log.Fatalf("unknown -exp %q", *which)
	}

	// Each experiment is one job writing its tables to its own buffer; jobs
	// run under the shared worker budget and the buffers print in experiment
	// order, so stdout is the same bytes regardless of -workers.
	var jobs []func(out io.Writer) error

	if runs["1"] {
		jobs = append(jobs, func(out io.Writer) error {
			cfg := exp.DefaultExp1()
			cfg.Seed = *seed
			cfg.Validate = *validate
			cfg.Progress = progress
			cfg.Workers = *workers
			if *big {
				cfg.Sizes = append(cfg.Sizes, topology.Big)
			}
			if *counts != "" {
				cfg.SessionCounts = nil
				for _, c := range strings.Split(*counts, ",") {
					n, err := strconv.Atoi(strings.TrimSpace(c))
					if err != nil {
						return fmt.Errorf("bad -counts: %v", err)
					}
					cfg.SessionCounts = append(cfg.SessionCounts, n)
				}
			} else if *scale != 1.0 {
				for i := range cfg.SessionCounts {
					cfg.SessionCounts[i] = int(float64(cfg.SessionCounts[i]) * *scale)
				}
			}
			start := time.Now()
			rows, err := exp.RunExperiment1(cfg)
			if err != nil {
				return fmt.Errorf("experiment 1: %v", err)
			}
			fmt.Fprintln(out, exp.FormatExp1(rows))
			fmt.Fprintf(out, "(experiment 1 wall time: %v)\n\n", time.Since(start).Round(time.Second))
			if *csvDir == "" {
				return nil
			}
			f, err := openCSV("fig5.csv")
			if err != nil {
				return err
			}
			if err := exp.WriteExp1CSV(f, rows); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		})
	}

	if runs["2"] {
		jobs = append(jobs, func(out io.Writer) error {
			cfg := exp.DefaultExp2()
			cfg.Seed = *seed
			cfg.Validate = *validate
			cfg.Base = int(float64(cfg.Base) * *scale)
			cfg.Dyn = int(float64(cfg.Dyn) * *scale)
			cfg.Progress = progress
			start := time.Now()
			res, err := exp.RunExperiment2(cfg)
			if err != nil {
				return fmt.Errorf("experiment 2: %v", err)
			}
			fmt.Fprintln(out, exp.FormatExp2(res))
			fmt.Fprintf(out, "(experiment 2 wall time: %v)\n\n", time.Since(start).Round(time.Second))
			if *csvDir == "" {
				return nil
			}
			f, err := openCSV("fig6.csv")
			if err != nil {
				return err
			}
			if err := exp.WriteExp2CSV(f, res); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		})
	}

	if runs["3"] {
		jobs = append(jobs, func(out io.Writer) error {
			cfg := exp.DefaultExp3()
			cfg.Seed = *seed
			cfg.Sessions = int(float64(cfg.Sessions) * *scale)
			cfg.Leavers = int(float64(cfg.Leavers) * *scale)
			cfg.Protocols = strings.Split(*protocols, ",")
			cfg.Progress = progress
			cfg.Workers = *workers
			start := time.Now()
			res, err := exp.RunExperiment3(cfg)
			if err != nil {
				return fmt.Errorf("experiment 3: %v", err)
			}
			fmt.Fprintln(out, exp.FormatExp3(res))
			fmt.Fprintf(out, "(experiment 3 wall time: %v)\n", time.Since(start).Round(time.Second))
			if *csvDir == "" {
				return nil
			}
			return exp.WriteAllCSV(res, openCSV)
		})
	}

	if runs["4"] {
		jobs = append(jobs, func(out io.Writer) error {
			cfg := exp.DefaultExp4()
			if *exp4Paper {
				cfg = exp.PaperExp4()
			} else if *big {
				cfg.Sizes = append(cfg.Sizes, topology.Big)
			}
			cfg.Seeds = []int64{*seed, *seed + 1, *seed + 2}
			cfg.Validate = *validate
			cfg.Sessions = int(float64(cfg.Sessions) * *scale)
			cfg.Churn = int(float64(cfg.Churn) * *scale)
			cfg.Progress = progress
			cfg.Workers = *workers
			cfg.Policy = polCfg
			start := time.Now()
			rows, err := exp.RunExperiment4(cfg)
			if err != nil {
				return fmt.Errorf("experiment 4: %v", err)
			}
			fmt.Fprintln(out, exp.FormatExp4(rows))
			fmt.Fprintf(out, "(experiment 4 wall time: %v)\n\n", time.Since(start).Round(time.Second))
			if *csvDir == "" {
				return nil
			}
			f, err := openCSV("exp4_reconfig.csv")
			if err != nil {
				return err
			}
			if err := exp.WriteExp4CSV(f, rows); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		})
	}

	if runs["5"] {
		jobs = append(jobs, func(out io.Writer) error {
			cfg := exp.DefaultExp5()
			if *big {
				cfg.Sizes = append(cfg.Sizes, topology.Big)
			}
			cfg.Seeds = []int64{*seed, *seed + 1}
			cfg.Validate = *validate
			cfg.Sessions = int(float64(cfg.Sessions) * *scale)
			cfg.Stretch = *reoptStretch
			cfg.MinGain = *reoptMinGain
			cfg.Progress = progress
			cfg.Workers = *workers
			start := time.Now()
			rows, err := exp.RunExperiment5(cfg)
			if err != nil {
				return fmt.Errorf("experiment 5: %v", err)
			}
			fmt.Fprintln(out, exp.FormatExp5(rows))
			fmt.Fprintf(out, "(experiment 5 wall time: %v)\n\n", time.Since(start).Round(time.Second))
			if *csvDir == "" {
				return nil
			}
			f, err := openCSV("exp5_reopt.csv")
			if err != nil {
				return err
			}
			if err := exp.WriteExp5CSV(f, rows); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		})
	}

	if runs["internet"] {
		jobs = append(jobs, func(out io.Writer) error {
			var params topology.InternetParams
			switch *internetSize {
			case "paper":
				params = topology.InternetPaper
			case "metro":
				params = topology.InternetMetro
			case "global":
				params = topology.InternetGlobal
			default:
				return fmt.Errorf("unknown -internet-size %q (paper, metro, global)", *internetSize)
			}
			count := *sessions
			if count <= 0 {
				count = 2 * params.Routers()
			}
			cfg := exp.InternetConfig{
				Params:   params,
				Sessions: count,
				Seed:     *seed,
				Validate: *validate,
			}
			start := time.Now()
			res, err := exp.RunInternet(cfg)
			if err != nil {
				return fmt.Errorf("experiment internet: %v", err)
			}
			fmt.Fprintf(out, "Internet-scale join burst — %s (%d routers, %d directed links)\n",
				params.Name, res.Routers, res.Links)
			fmt.Fprintf(out, "  sessions   : %d joined within 1ms\n", res.Sessions)
			fmt.Fprintf(out, "  quiescence : %v after %d packets, %d events\n",
				time.Duration(res.Quiescence), res.Packets, res.Events)
			if *validate {
				fmt.Fprintln(out, "  validation : rates equal the centralized max-min fair rates ✓")
			}
			fmt.Fprintf(out, "(experiment internet wall time: %v)\n\n", time.Since(start).Round(time.Millisecond))
			return nil
		})
	}

	outs := make([]bytes.Buffer, len(jobs))
	err := exp.RunParallel(len(jobs), *workers, func(i int) error {
		return jobs[i](&outs[i])
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
