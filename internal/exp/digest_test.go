package exp

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"bneck/internal/topology"
)

// TestExp1CSVDigest pins Experiment 1's CSV and table bytes — the table
// carries the settling-time percentiles the CSV leaves out — on small LAN and
// WAN cells and a 0-session cell, to a SHA-256 digest.
func TestExp1CSVDigest(t *testing.T) {
	cfg := smallExp1()
	cfg.SessionCounts = []int{0, 40, 150}
	rows, err := RunExperiment1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteExp1CSV(&b, rows); err != nil {
		t.Fatal(err)
	}
	b.WriteString(FormatExp1(rows))
	const want = "07b9a39758bd798501d2ec4ad1f20f455479cc8bbda7520664c1cc08c04d6576"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String()))); got != want {
		t.Fatalf("exp1 digest %s, want %s:\n%s", got, want, b.String())
	}
}

// TestExp2CSVDigest pins Experiment 2's CSV and table bytes on a small LAN
// and a small WAN run to a SHA-256 digest.
func TestExp2CSVDigest(t *testing.T) {
	var b strings.Builder
	for _, scen := range []topology.Scenario{topology.LAN, topology.WAN} {
		cfg := DefaultExp2()
		cfg.Topology, cfg.Scenario = topology.Small, scen
		cfg.Base, cfg.Dyn = 150, 30
		res, err := RunExperiment2(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteExp2CSV(&b, res); err != nil {
			t.Fatal(err)
		}
		b.WriteString(FormatExp2(res))
	}
	const want = "e4a1daa105f66329b738da50531419dbc44dffe28e64490635206e1ab03b2074"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String()))); got != want {
		t.Fatalf("exp2 digest %s, want %s:\n%s", got, want, b.String())
	}
}

// TestExp3CSVDigest pins Experiment 3's bytes on a small LAN — both Figure 7
// CSVs of each protocol, the Figure 8 CSV and the table — to a SHA-256
// digest. The burst-phase oracles and the schedule's draws all feed it.
func TestExp3CSVDigest(t *testing.T) {
	cfg := DefaultExp3()
	cfg.Topology = topology.Small
	cfg.Sessions, cfg.Leavers = 150, 15
	cfg.Horizon = 40 * time.Millisecond
	res, err := RunExperiment3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, s := range res.Series {
		if err := WriteExp3ErrorCSV(&b, s.SourceErr, s.Protocol); err != nil {
			t.Fatal(err)
		}
		if err := WriteExp3ErrorCSV(&b, s.LinkErr, s.Protocol); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteExp3PacketsCSV(&b, res); err != nil {
		t.Fatal(err)
	}
	b.WriteString(FormatExp3(res))
	const want = "62008bf1a8dda0efcf75cfa03c95289a5f73d252407df4e7b43c831f694c2201"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String()))); got != want {
		t.Fatalf("exp3 digest %s, want %s:\n%s", got, want, b.String())
	}
}
