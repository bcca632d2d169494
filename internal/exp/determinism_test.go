package exp

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"bneck/internal/topology"
)

// The experiments must be bit-for-bit reproducible from their seeds — the
// property that lets EXPERIMENTS.md quote exact numbers.

func TestExp1Deterministic(t *testing.T) {
	cfg := DefaultExp1()
	cfg.Sizes = []topology.Params{topology.Small}
	cfg.Scenarios = []topology.Scenario{topology.LAN}
	cfg.SessionCounts = []int{200}
	run := func() []Exp1Row {
		rows, err := RunExperiment1(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("experiment 1 not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestExp1ParallelMatchesSerial locks in the sweep's contract: a parallel
// sweep must produce the same rows, the same CSV bytes, and the same
// progress lines as a serial one.
func TestExp1ParallelMatchesSerial(t *testing.T) {
	base := DefaultExp1()
	base.Sizes = []topology.Params{topology.Small}
	base.Scenarios = []topology.Scenario{topology.LAN, topology.WAN}
	base.SessionCounts = []int{50, 150, 400}
	run := func(workers int) ([]Exp1Row, []byte, []byte) {
		cfg := base
		cfg.Workers = workers
		var progress bytes.Buffer
		cfg.Progress = &progress
		rows, err := RunExperiment1(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var csv bytes.Buffer
		if err := WriteExp1CSV(&csv, rows); err != nil {
			t.Fatal(err)
		}
		return rows, csv.Bytes(), progress.Bytes()
	}
	serialRows, serialCSV, serialProgress := run(1)
	parallelRows, parallelCSV, parallelProgress := run(4)
	if !reflect.DeepEqual(serialRows, parallelRows) {
		t.Fatalf("parallel rows differ from serial:\n%+v\n%+v", serialRows, parallelRows)
	}
	if !bytes.Equal(serialCSV, parallelCSV) {
		t.Fatalf("parallel CSV differs from serial:\n%s\n%s", serialCSV, parallelCSV)
	}
	if !bytes.Equal(serialProgress, parallelProgress) {
		t.Fatalf("parallel progress differs from serial:\n%s\n%s", serialProgress, parallelProgress)
	}
}

func TestExp3ParallelMatchesSerial(t *testing.T) {
	base := DefaultExp3()
	base.Topology = topology.Small
	base.Sessions = 150
	base.Leavers = 15
	base.Horizon = 40 * time.Millisecond
	base.Protocols = []string{"bneck", "bfyz", "cg", "rcp"}
	run := func(workers int) *Exp3Result {
		cfg := base
		cfg.Workers = workers
		res, err := RunExperiment3(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(1), run(4); !reflect.DeepEqual(a, b) {
		t.Fatal("experiment 3 parallel result differs from serial")
	}
}

func TestRunParallel(t *testing.T) {
	for _, workers := range []int{-1, 1, 3, 16} {
		var calls atomic.Int64
		out := make([]int, 100)
		if err := RunParallel(len(out), workers, func(i int) error {
			calls.Add(1)
			out[i] = i * i
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if calls.Load() != 100 {
			t.Fatalf("workers=%d: %d calls", workers, calls.Load())
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: job %d not run (got %d)", workers, i, v)
			}
		}
	}
	// The reported error is the lowest-index failure, and later jobs still
	// run (results must not depend on scheduling).
	errA, errB := errors.New("a"), errors.New("b")
	var ran atomic.Int64
	err := RunParallel(10, 4, func(i int) error {
		ran.Add(1)
		switch i {
		case 7:
			return errB
		case 3:
			return errA
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want lowest-index error", err)
	}
	if ran.Load() != 10 {
		t.Fatalf("ran = %d, want all jobs despite failures", ran.Load())
	}
	if err := RunParallel(0, 4, func(int) error { return errA }); err != nil {
		t.Fatalf("n=0: %v", err)
	}
}

// TestSweepFailure: with a failing middle cell that finishes before the
// cells ahead of it, a parallel sweep returns the rows of the cells before
// it, its error under its name, and the progress lines up to it in cell
// order.
func TestSweepFailure(t *testing.T) {
	boom := errors.New("boom")
	failed := make(chan struct{})
	var progress bytes.Buffer
	rows, err := sweep([]int{0, 1, 2, 3, 4, 5, 6, 7}, 4, &progress,
		func(c int) string { return fmt.Sprintf("cell %d", c) },
		func(c int) ([]int, string, error) {
			switch {
			case c == 2:
				close(failed)
				return nil, "", boom
			case c < 2:
				<-failed // finish after the failing cell
			}
			return []int{c, 10 * c}, fmt.Sprintf("line %d\n", c), nil
		})
	if !reflect.DeepEqual(rows, []int{0, 0, 1, 10}) {
		t.Errorf("rows = %v, want the rows of cells 0 and 1", rows)
	}
	if !errors.Is(err, boom) || err.Error() != "cell 2: boom" {
		t.Errorf("err = %v, want cell 2: boom", err)
	}
	if got := progress.String(); got != "line 0\nline 1\n" {
		t.Errorf("progress = %q, want the lines of cells 0 and 1", got)
	}
}

func TestExp2Deterministic(t *testing.T) {
	cfg := DefaultExp2()
	cfg.Topology = topology.Small
	cfg.Base = 200
	cfg.Dyn = 40
	run := func() *Exp2Result {
		res, err := RunExperiment2(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Phases, b.Phases) {
		t.Fatalf("experiment 2 phases differ:\n%+v\n%+v", a.Phases, b.Phases)
	}
	if !reflect.DeepEqual(a.Bins, b.Bins) {
		t.Fatalf("experiment 2 bins differ")
	}
}

func TestExp3Deterministic(t *testing.T) {
	cfg := DefaultExp3()
	cfg.Topology = topology.Small
	cfg.Sessions = 150
	cfg.Leavers = 15
	cfg.Horizon = 40 * time.Millisecond
	run := func() *Exp3Result {
		res, err := RunExperiment3(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("experiment 3 not deterministic")
	}
}
