package exp

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"bneck/internal/topology"
)

func smallExp5() Exp5Config {
	cfg := DefaultExp5()
	cfg.Sizes = []topology.Params{topology.Small}
	cfg.Scenarios = []topology.Scenario{topology.LAN}
	cfg.Seeds = []int64{1}
	cfg.Sessions = 60
	cfg.Fails = 3
	return cfg
}

// TestExp5MeasuresTheTrade pins the experiment's point: after the restore,
// the reoptimize run carries no excess hops and at least the pinned run's
// rate, and pays for it with reconfiguration packets the pinned run never
// sends.
func TestExp5MeasuresTheTrade(t *testing.T) {
	rows, err := RunExperiment5(smallExp5())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 2 policies × 3 phases", len(rows))
	}
	byKey := make(map[string]Exp5Row)
	for _, r := range rows {
		byKey[r.Policy+"/"+r.Phase] = r
	}
	pinned, reopt := byKey["pinned/restore"], byKey["reoptimize/restore"]
	pinnedFail := byKey["pinned/fail"]
	if pinnedFail.Migrated == 0 {
		t.Fatal("failure phase migrated nobody — the workload is inert")
	}
	if pinned.Reoptimized != 0 {
		t.Fatalf("pinned run reoptimized %d sessions", pinned.Reoptimized)
	}
	if pinned.HopsActive <= pinned.HopsBest {
		t.Fatalf("pinned restore carries no detour debt (hops %d, best %d) — the experiment shows nothing",
			pinned.HopsActive, pinned.HopsBest)
	}
	if reopt.Reoptimized == 0 {
		t.Fatal("reoptimize run moved nobody back")
	}
	if reopt.HopsActive != reopt.HopsBest {
		t.Fatalf("reoptimize restore left excess hops: %d vs best %d", reopt.HopsActive, reopt.HopsBest)
	}
	if reopt.SumRateMbps < pinned.SumRateMbps {
		t.Fatalf("reoptimize rate %.1f below pinned %.1f", reopt.SumRateMbps, pinned.SumRateMbps)
	}
	if reopt.ReconfigPackets <= pinned.ReconfigPackets {
		t.Fatalf("reoptimize reconfig packets %d not above pinned %d — the cost side is missing",
			reopt.ReconfigPackets, pinned.ReconfigPackets)
	}
	// Both fail phases are identical workloads: the policies must not
	// diverge before the restore.
	reoptFail := byKey["reoptimize/fail"]
	pinnedFail.Policy, reoptFail.Policy = "", ""
	if !reflect.DeepEqual(pinnedFail, reoptFail) {
		t.Fatalf("fail phases diverged before the restore:\n%+v\n%+v", pinnedFail, reoptFail)
	}
}

// TestExp5ShardedCSVByteIdentical is the policy-on determinism criterion:
// exp5 CSVs, LAN and WAN with the re-optimization sweep on, match the digest
// the classic engine emitted when every shard count and window-batch setting
// of the retired sharded engine was held to it.
func TestExp5ShardedCSVByteIdentical(t *testing.T) {
	cfg := smallExp5()
	cfg.Scenarios = []topology.Scenario{topology.LAN, topology.WAN}
	rows, err := RunExperiment5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteExp5CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	const want = "7dee02457255e5cae02b24ffae6a5bd9dea8f73d5ac6163e4e9138247fb74690"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("exp5 CSV digest %s, want %s:\n%s", got, want, buf.Bytes())
	}
}

// TestExp5ParallelMatchesSerial: worker fan-out never changes rows,
// CSV bytes, or progress lines.
func TestExp5ParallelMatchesSerial(t *testing.T) {
	base := smallExp5()
	base.Seeds = []int64{1, 2, 3}
	run := func(workers int) ([]Exp5Row, []byte, []byte) {
		cfg := base
		cfg.Workers = workers
		var progress bytes.Buffer
		cfg.Progress = &progress
		rows, err := RunExperiment5(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var csv bytes.Buffer
		if err := WriteExp5CSV(&csv, rows); err != nil {
			t.Fatal(err)
		}
		return rows, csv.Bytes(), progress.Bytes()
	}
	serialRows, serialCSV, serialProgress := run(1)
	parallelRows, parallelCSV, parallelProgress := run(4)
	if !reflect.DeepEqual(serialRows, parallelRows) {
		t.Fatalf("parallel rows differ from serial")
	}
	if !bytes.Equal(serialCSV, parallelCSV) {
		t.Fatalf("parallel CSV differs from serial:\n%s\n%s", serialCSV, parallelCSV)
	}
	if !bytes.Equal(serialProgress, parallelProgress) {
		t.Fatalf("parallel progress differs from serial:\n%s\n%s", serialProgress, parallelProgress)
	}
}

func TestExp5RejectsBadConfig(t *testing.T) {
	cfg := smallExp5()
	cfg.Sessions = 0
	if _, err := RunExperiment5(cfg); err == nil {
		t.Fatal("accepted zero sessions")
	}
	cfg = smallExp5()
	cfg.Fails = 0
	if _, err := RunExperiment5(cfg); err == nil {
		t.Fatal("accepted zero failures")
	}
}
