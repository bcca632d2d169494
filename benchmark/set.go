package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// metricDef names one metric: its unit, which direction is better and, for
// end-to-end metrics, the relative worsening that counts as a regression.
// BENCHMARK.json repeats this table; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a user of the system sees, reported for every
// workload. failed_share — failed checks ÷ attempted checks, bound 0 — is
// printed beside them and reaches the driver as its failed/attempted counts.
// Every bound is the largest the driver allows: README.md has the noise
// measurements of this machine that leave no room for a tighter one.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"pkts_per_s", "packets/s", "higher", 0.25},
	{"epoch_ms_p50", "ms", "lower", 0.25},
	{"epoch_ms_p90", "ms", "lower", 0.25},
	{"validate_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// repDeadline is how long one repetition may take before it is killed and
// its checks counted as failed: a run that never quiesces must not hang the
// benchmark. The slowest repetition takes a few seconds; three lost ones in
// a row still end inside the driver's 180 s limit for one run.
const repDeadline = 45 * time.Second

// workloadResult collects one workload's repetitions of a set.
type workloadResult struct {
	Name string       `json:"name"`
	Reps []*repResult `json:"reps"`
	// Lost counts repetitions that were killed at the deadline or died.
	Lost      int                `json:"lost"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Digest    string             `json:"digest,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
	// Layer holds the per-layer metrics when the set is a traced run.
	Layer map[string]float64 `json:"layer,omitempty"`
}

type setResult struct {
	Machine   machine           `json:"machine"`
	Scale     string            `json:"scale"`
	Claim     *string           `json:"claim"` // always null: this benchmark claims no gain
	Workloads []*workloadResult `json:"workloads"`
}

func (s *setResult) failed() int {
	n := 0
	for _, w := range s.Workloads {
		n += w.Failed
	}
	return n
}

// runSet runs repetitions round-robin across the workloads — so machine
// drift hits all of them equally — until every workload has o.reps of them
// and, when o.seconds is set, that much time has passed.
func runSet(o options, sc scale, names []string) *setResult {
	set := &setResult{Machine: thisMachine(o.seed), Scale: sc.name}
	for _, name := range names {
		set.Workloads = append(set.Workloads, &workloadResult{Name: name})
	}
	minReps := o.reps
	if o.seconds > 0 {
		minReps = 3
	}
	start := time.Now()
	for round := 0; ; round++ {
		roundStart := time.Now()
		for _, w := range set.Workloads {
			w.add(runRep(o, sc, w.Name, nil))
		}
		elapsed := time.Since(start).Seconds()
		// Stop when another round would overshoot the time asked for by more
		// than it undershoots now.
		next := elapsed + time.Since(roundStart).Seconds()/2
		if round+1 >= minReps && (o.seconds == 0 || next >= o.seconds) {
			break
		}
	}
	for _, w := range set.Workloads {
		w.finish(o.seed, sc)
	}
	return set
}

// runRep re-executes this binary as a child for one repetition. A child
// that dies or outlives the deadline yields an error; add then charges the
// repetition's checks as failed.
func runRep(o options, sc scale, workload string, extra []string) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), repDeadline)
	defer cancel()
	args := append([]string{"-child", "-workload", workload, "-seed", strconv.FormatInt(o.seed, 10), "-scale", sc.name}, extra...)
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	// CommandContext kills the child at the deadline; Run waits for it.
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%s: killed after %v without quiescing", workload, repDeadline)
		}
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res repResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s: unreadable child result: %w", workload, err)
	}
	return &res, nil
}

func (w *workloadResult) add(res *repResult, err error) {
	if err != nil {
		w.Lost++
		w.fail(err.Error())
		return
	}
	w.Reps = append(w.Reps, res)
}

func (w *workloadResult) fail(msg string) {
	if len(w.Failures) < 8 {
		w.Failures = append(w.Failures, msg)
	}
}

// finish turns the repetitions into the workload's metrics and counts.
func (w *workloadResult) finish(seed int64, sc scale) {
	var setup, pps, packets, rss, repP50, repP90, validate []float64
	for i, r := range w.Reps {
		w.Attempted += r.Attempted
		w.Failed += r.Failed
		for _, f := range r.Failures {
			w.fail(f)
		}
		// Determinism: identical seeds must give identical simulated outcomes.
		if r.Digest != "" {
			w.Attempted++
			if i == 0 {
				w.Digest = r.Digest
			} else if r.Digest != w.Digest {
				w.Failed++
				w.fail(fmt.Sprintf("repetition %d: digest %s differs from %s", i, r.Digest, w.Digest))
			}
		}
		setup = append(setup, r.SetupS)
		pps = append(pps, float64(r.Packets)/r.RunS)
		packets = append(packets, float64(r.Packets))
		rss = append(rss, r.PeakRSSMB)
		repP50 = append(repP50, percentile(r.EpochMs[1:], 50))
		repP90 = append(repP90, percentile(r.EpochMs[1:], 90))
		validate = append(validate, r.ValidateMs...)
	}
	if w.Lost > 0 {
		// A lost repetition made none of its checks: charge them all.
		if p, err := newPlan(w.Name, seed, sc); err == nil {
			w.Attempted += w.Lost * p.checks()
			w.Failed += w.Lost * p.checks()
		}
	}
	if w.Attempted == 0 {
		w.Attempted, w.Failed = 1, 1
	}
	// Every repetition of a set runs the same plan, so epoch e is the same
	// work in each of them, and undisturbed() over the repetitions is what
	// that epoch costs when nothing else slows the machine down. The epoch
	// percentiles are then taken over the plan's epochs, so p90 is what the
	// plan's expensive epochs cost. (The 90th percentile of all samples
	// pooled is the tail of the machine's noise: on chains_bare, whose change
	// epochs are identical work, it moved 17-25 % between runs of the same
	// code.) Epoch 0 is the initial join storm; the epoch metrics are the
	// reconvergence epochs after it. Median, quartiles and n beside each
	// value describe the raw per-repetition figures.
	epochMs := perEpoch(w.Reps, func(r *repResult) []float64 { return r.EpochMs })
	validateMs := perEpoch(w.Reps, func(r *repResult) []float64 { return r.ValidateMs })
	runMs := 0.0
	for _, t := range epochMs {
		runMs += t
	}
	pktsPerS := 0.0 // stays 0 when every repetition was lost
	if runMs > 0 {
		pktsPerS = median(packets) / (runMs / 1000)
		epochMs = epochMs[1:]
	}
	w.Metrics = map[string]summary{
		"setup_s":      summarize(setup).reporting(undisturbed(setup)),
		"pkts_per_s":   summarize(pps).reporting(pktsPerS),
		"epoch_ms_p50": summarize(repP50).reporting(percentile(epochMs, 50)),
		"epoch_ms_p90": summarize(repP90).reporting(percentile(epochMs, 90)),
		"validate_ms":  summarize(validate).reporting(median(validateMs)),
		"peak_rss_mb":  summarize(rss),
	}
}

// perEpoch returns, for every epoch of the plan, the undisturbed value over
// the repetitions of that epoch's sample.
func perEpoch(reps []*repResult, samples func(*repResult) []float64) []float64 {
	if len(reps) == 0 {
		return nil
	}
	n := len(samples(reps[0]))
	for _, r := range reps {
		n = min(n, len(samples(r)))
	}
	out := make([]float64, n)
	at := make([]float64, len(reps))
	for e := range out {
		for i, r := range reps {
			at[i] = samples(r)[e]
		}
		out[e] = undisturbed(at)
	}
	return out
}

// failedShare is the seventh end-to-end metric: failed ÷ attempted checks.
func (w *workloadResult) failedShare() float64 {
	return float64(w.Failed) / float64(w.Attempted)
}

// driverLine renders the workload as the one-line JSON object the driver
// reads from the last line of standard output.
func (w *workloadResult) driverLine(defs []metricDef) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := w.Layer[d.name]
		if s, e2e := w.Metrics[d.name]; e2e {
			v, ok = s.Value, true
		}
		if !ok {
			v = 0 // a layer this workload does not exercise
		}
		metrics[d.name] = value{v, d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{w.Failed == 0, w.Attempted, w.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

func (s *setResult) print(out io.Writer) {
	for _, w := range s.Workloads {
		fmt.Fprintf(out, "\n%s — %s\n", w.Name, workloadWhy[w.Name])
		fmt.Fprintf(out, "  %-14s %-10s %14s %14s %14s %14s %5s  %s\n", "metric", "unit", "value", "median", "q1", "q3", "n", "bound")
		for _, d := range endToEnd {
			m := w.Metrics[d.name]
			fmt.Fprintf(out, "  %-14s %-10s %14.4f %14.4f %14.4f %14.4f %5d  %s by %.0f%%\n",
				d.name, d.unit, m.Value, m.Median, m.Q1, m.Q3, m.N, d.better, d.bound*100)
		}
		fmt.Fprintf(out, "  %-14s %-10s %14.4f %14s %14s %14s %5d  lower by 0 (failed %d of %d checks)\n",
			"failed_share", "ratio", w.failedShare(), "", "", "", w.Attempted, w.Failed, w.Attempted)
		if w.Digest != "" {
			fmt.Fprintf(out, "  digest %s over %d repetitions\n", w.Digest, len(w.Reps))
		}
		for _, f := range w.Failures {
			fmt.Fprintf(out, "  FAILED: %s\n", f)
		}
	}
}

func (s *setResult) save(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runSelfcheck runs two full sets of the same code and compares every
// end-to-end metric of every workload against its bound.
func runSelfcheck(o options, sc scale, names []string) int {
	a := runSet(o, sc, names)
	b := runSet(o, sc, names)
	a.print(os.Stdout)
	b.print(os.Stdout)
	bad := a.failed() + b.failed()
	fmt.Printf("\nselfcheck: second set against first\n")
	fmt.Printf("  %-16s %-14s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "change", "bound")
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		for _, d := range endToEnd {
			x, y := wa.Metrics[d.name].Value, wb.Metrics[d.name].Value
			change := 0.0
			if x != 0 {
				change = (y - x) / x
			}
			verdict := "ok"
			if change > d.bound || change < -d.bound {
				verdict = "OUTSIDE"
				bad++
			}
			fmt.Printf("  %-16s %-14s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n", wa.Name, d.name, x, y, change*100, d.bound*100, verdict)
		}
	}
	if bad > 0 {
		fmt.Println("selfcheck: FAILED")
		return 1
	}
	fmt.Println("selfcheck: ok")
	return 0
}
