package exp

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"
	"time"

	"bneck/internal/topology"
)

func smallExp4() Exp4Config {
	cfg := DefaultExp4()
	cfg.Sizes = []topology.Params{topology.Small}
	cfg.Scenarios = []topology.Scenario{topology.LAN}
	cfg.Seeds = []int64{1, 2}
	cfg.Sessions = 120
	cfg.Epochs = 5
	cfg.Churn = 10
	return cfg
}

func TestExp4RunsAndValidates(t *testing.T) {
	cfg := smallExp4()
	rows, err := RunExperiment4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(cfg.Seeds) * (cfg.Epochs + 1)
	if len(rows) != wantRows {
		t.Fatalf("rows = %d, want %d", len(rows), wantRows)
	}
	// Every cell must actually have disturbed the topology.
	migrated := uint64(0)
	fails := 0
	for _, r := range rows {
		migrated += r.Migrated
		if r.Epoch > 0 && r.Events == "" {
			t.Fatalf("epoch %d of seed %d has no events", r.Epoch, r.Seed)
		}
		if r.Epoch > 0 && r.Packets == 0 {
			t.Fatalf("epoch %d of seed %d cost no packets", r.Epoch, r.Seed)
		}
		if r.Epoch > 0 {
			fails++
		}
	}
	if migrated == 0 {
		t.Fatal("no session was ever migrated by a failure")
	}
	if fails == 0 {
		t.Fatal("no reconfiguration epochs ran")
	}
}

// TestExp4ParallelMatchesSerial locks in the acceptance criterion: Experiment
// 4 CSVs are byte-identical between serial and -workers N runs.
func TestExp4ParallelMatchesSerial(t *testing.T) {
	base := smallExp4()
	base.Seeds = []int64{1, 2, 3, 4}
	run := func(workers int) ([]Exp4Row, []byte, []byte) {
		cfg := base
		cfg.Workers = workers
		var progress bytes.Buffer
		cfg.Progress = &progress
		rows, err := RunExperiment4(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var csv bytes.Buffer
		if err := WriteExp4CSV(&csv, rows); err != nil {
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

// TestExp4ShardedCSVByteIdentical pins the Experiment 4 CSV bytes, LAN and
// WAN, to the digest the classic engine emitted when every shard count and
// window-batch setting of the retired sharded engine was held to it: the one
// engine left must reproduce that reference exactly.
func TestExp4ShardedCSVByteIdentical(t *testing.T) {
	cfg := DefaultExp4()
	cfg.Sizes = []topology.Params{topology.Small}
	cfg.Scenarios = []topology.Scenario{topology.LAN, topology.WAN}
	cfg.Seeds = []int64{1, 2}
	cfg.Sessions = 60
	cfg.Epochs = 3
	cfg.Churn = 8
	cfg.Window = time.Millisecond
	rows, err := RunExperiment4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteExp4CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	const want = "3a3f521fa1e5742b0094e6d1df8effc5b016febf4d18210f0e982ed742c4eeb5"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("exp4 CSV digest %s, want %s:\n%s", got, want, buf.Bytes())
	}
}

func TestExp4Deterministic(t *testing.T) {
	cfg := smallExp4()
	cfg.Seeds = []int64{7}
	a, err := RunExperiment4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunExperiment4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("experiment 4 not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestExp4RejectsBadConfig(t *testing.T) {
	cfg := smallExp4()
	cfg.Epochs = 0
	if _, err := RunExperiment4(cfg); err == nil {
		t.Fatal("accepted zero epochs")
	}
	cfg = smallExp4()
	cfg.Sessions = 5
	cfg.Churn = 10
	if _, err := RunExperiment4(cfg); err == nil {
		t.Fatal("accepted churn larger than base population")
	}
	_ = time.Second
}
