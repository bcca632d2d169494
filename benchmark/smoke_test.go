package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The benchmark re-executes its own binary for every repetition. Under
// `go test` that binary is the test binary, so TestMain routes a child
// invocation to the benchmark's run instead of to the tests.
func TestMain(m *testing.M) {
	if os.Getenv("BNECK_BENCHMARK_CHILD") != "" {
		os.Exit(run(os.Args[1:]))
	}
	os.Setenv("BNECK_BENCHMARK_CHILD", "1")
	os.Exit(m.Run())
}

// One repetition of every workload at tiny scale, through the same
// parent → child path a full set takes.
func TestSmokeSet(t *testing.T) {
	save := filepath.Join(t.TempDir(), "set.json")
	if code := run([]string{"-scale", "tiny", "-reps", "1", "-save", save}); code != 0 {
		t.Fatalf("benchmark exited %d", code)
	}
	b, err := os.ReadFile(save)
	if err != nil {
		t.Fatal(err)
	}
	var set setResult
	if err := json.Unmarshal(b, &set); err != nil {
		t.Fatal(err)
	}
	if len(set.Workloads) != len(workloadNames) || set.Claim != nil {
		t.Fatalf("saved set has %d workloads, claim %v", len(set.Workloads), set.Claim)
	}
	for _, w := range set.Workloads {
		if w.Failed != 0 || w.Attempted == 0 || len(w.Reps) != 1 {
			t.Errorf("%s: failed %d of %d checks over %d repetitions: %v", w.Name, w.Failed, w.Attempted, len(w.Reps), w.Failures)
		}
		for _, d := range endToEnd {
			if m := w.Metrics[d.name]; m.Value <= 0 || m.Median <= 0 || m.N == 0 {
				t.Errorf("%s: %s = %+v", w.Name, d.name, m)
			}
		}
		if (w.Digest == "") != (w.Name == wlLive) {
			t.Errorf("%s: digest %q", w.Name, w.Digest)
		}
	}
}

// The traced run of every workload at tiny scale: every per-layer metric is
// there, the trace files are written, the cross-checks hold.
func TestSmokeTraced(t *testing.T) {
	dir := t.TempDir()
	if code := run([]string{"-scale", "tiny", "-trace", "-out", dir}); code != 0 {
		t.Fatalf("traced benchmark exited %d", code)
	}
	for _, name := range workloadNames {
		b, err := os.ReadFile(filepath.Join(dir, "trace-"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var events []traceEvent
		if err := json.Unmarshal(b, &events); err != nil || len(events) == 0 {
			t.Fatalf("%s: %d trace events, %v", name, len(events), err)
		}
	}
}

// The driver's spelling of the flags, and its one-line result.
func TestDriverForm(t *testing.T) {
	got := foldTraceValue([]string{"--workload", "x", "--trace", "1", "--seed", "3", "-trace"})
	want := []string{"--workload", "x", "-trace=1", "--seed", "3", "-trace"}
	if len(got) != len(want) {
		t.Fatalf("foldTraceValue = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("foldTraceValue = %v", got)
		}
	}
	w := &workloadResult{Attempted: 4, Metrics: map[string]summary{}, Layer: map[string]float64{"sim.share": 0.25}}
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(w.driverLine(perLayer)), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted != 4 || len(line.Metrics) != len(perLayer) || line.Metrics["sim.share"].Value != 0.25 {
		t.Fatalf("driver line = %+v", line)
	}
}
