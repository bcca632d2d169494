// Command benchmark is the repository's performance benchmark: four named
// workloads, six bounded end-to-end metrics plus the failed-check share,
// and a separate traced run that attributes time to layers. See README.md
// in this directory for the metric glossary and how to read the output.
//
//	go run -C benchmark .                 one full set: every workload, -reps repetitions each
//	go run -C benchmark . -trace          the traced run: per-layer metrics and trace files
//	go run -C benchmark . -selfcheck      two sets, compared against the metrics' own bounds
//	go run -C benchmark . --workload churn_wan --seed 7 --seconds 30 --trace 0
//	                                      the form the driver calls (BENCHMARK.json)
//
// Every repetition runs in a fresh child process (a re-exec of this binary
// with -child), so heap state, GC pacing and peak RSS are per repetition.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

var processStart = time.Now()

type options struct {
	workload  string
	seed      int64
	seconds   float64
	reps      int
	trace     bool
	selfcheck bool
	scale     string
	outDir    string
	save      string

	// Child-only flags, set by the parent when it re-executes itself.
	child         bool
	shards        int
	expectPackets uint64
	expectDigest  string
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: all, "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed; every repetition of a set shares it, so the work is identical")
	fs.Float64Var(&o.seconds, "seconds", 0, "keep starting repetitions until this many seconds have passed (0: exactly -reps)")
	fs.IntVar(&o.reps, "reps", 5, "repetitions per workload (at least 5 at full scale)")
	fs.BoolVar(&o.trace, "trace", false, "traced run: per-layer metrics and out/trace-<workload>.json")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run two sets and fail if they disagree by more than a metric's bound")
	fs.StringVar(&o.scale, "scale", "full", "input sizes: full or tiny (smoke test)")
	fs.StringVar(&o.outDir, "out", "out", "directory for trace files")
	fs.StringVar(&o.save, "save", "", "also write the result set as JSON to this file")
	fs.BoolVar(&o.child, "child", false, "internal: run one repetition and print its result as JSON")
	fs.IntVar(&o.shards, "shards", -1, "internal: pass bneck.WithShards(n) (sharded probe of the traced run)")
	fs.Uint64Var(&o.expectPackets, "expect-packets", 0, "internal: packet count of the untraced run of the same seed")
	fs.StringVar(&o.expectDigest, "expect-digest", "", "internal: digest of the untraced run of the same seed")
	if err := fs.Parse(foldTraceValue(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	sc, ok := scales[o.scale]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown -scale %q\n", o.scale)
		return 2
	}
	if o.child {
		return runChild(o, sc)
	}

	names := workloadNames
	if o.workload != "all" {
		if _, err := newPlan(o.workload, o.seed, sc); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		names = []string{o.workload}
	}
	if o.seconds == 0 && o.scale == "full" && o.reps < 5 {
		fmt.Fprintln(os.Stderr, "benchmark: -reps must be at least 5 at full scale")
		return 2
	}
	printMachine(os.Stdout, o.seed)
	switch {
	case o.trace:
		return runTraced(o, sc, names)
	case o.selfcheck:
		return runSelfcheck(o, sc, names)
	}
	set := runSet(o, sc, names)
	set.print(os.Stdout)
	return set.conclude(o, endToEnd)
}

// conclude ends a run: it saves the set if asked to, and either prints the
// driver's result line (the driver's form is one workload and -seconds; it
// reads failures from that line, so the exit code stays 0) or turns failed
// checks into the exit code.
func (s *setResult) conclude(o options, defs []metricDef) int {
	if o.save != "" {
		if err := s.save(o.save); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if o.seconds > 0 && len(s.Workloads) == 1 {
		fmt.Println(s.Workloads[0].driverLine(defs))
		return 0
	}
	if s.failed() > 0 {
		return 1
	}
	return 0
}

// foldTraceValue rewrites "--trace 0|1" (the driver's spelling, a flag with
// a value) into "-trace=0|1", so that a bare "-trace" keeps working as the
// boolean the README documents.
func foldTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

// machine is recorded with every output: numbers from different machines
// or core counts are not comparable.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Seed       int64  `json:"seed"`
}

func thisMachine(seed int64) machine {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return machine{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Kernel: kernel, Seed: seed}
}

func printMachine(w *os.File, seed int64) {
	m := thisMachine(seed)
	fmt.Fprintf(w, "machine: nproc=%d GOMAXPROCS=%d %s kernel=%s seed=%d\n",
		m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.Kernel, m.Seed)
}

// runChild is one repetition: it runs the workload once in this process and
// prints its repResult as a single JSON line.
func runChild(o options, sc scale) int {
	p, err := newPlan(o.workload, o.seed, sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 2
	}
	var res *repResult
	switch {
	case o.trace:
		res, err = runTracedRep(p, o)
	case p.live:
		res, err = runLive(p, nil, nil)
	default:
		res, err = runSim(p, func() (simNet, error) { return buildPublic(p, shardOption(o.shards)...) }, nil, nil)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	res.PeakRSSMB = peakRSSMB()
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb)
			return kb / 1024
		}
	}
	return 0
}
