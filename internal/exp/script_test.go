package exp

import (
	"testing"

	"bneck/internal/scenario"
	"bneck/internal/topology"
)

// TestExperimentScriptsBothTransports generates a small Experiment 4 cell
// and a small Experiment 5 cell and runs both scripts on the simulator and
// on the live runtime, where every epoch must validate. The simulator's
// epochs must be the rows RunExperiment4 and RunExperiment5 report.
func TestExperimentScriptsBothTransports(t *testing.T) {
	cfg4 := smallExp4()
	cfg4.Seeds, cfg4.Sessions, cfg4.Epochs, cfg4.Churn = []int64{3}, 40, 3, 5
	rows4, err := RunExperiment4(cfg4)
	if err != nil {
		t.Fatal(err)
	}
	src4, _, err := exp4Script(cfg4, topology.Small, topology.LAN, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg5 := smallExp5()
	cfg5.Sessions = 30
	rows5, err := RunExperiment5(cfg5)
	if err != nil {
		t.Fatal(err)
	}
	src5, _, _, err := exp5Script(cfg5, topology.Small, topology.LAN, 1)
	if err != nil {
		t.Fatal(err)
	}
	// exp5's script has no policy line: its rows are the pinned ones.
	type row struct {
		active, stranded int
		packets          uint64
		requiescenceUS   int64
	}
	var want4, want5 []row
	for _, r := range rows4 {
		want4 = append(want4, row{r.Active, r.Stranded, r.Packets, r.Requiescence.Microseconds()})
	}
	for _, r := range rows5[:3] {
		want5 = append(want5, row{r.Active, r.Stranded, r.Packets, r.Requiescence.Microseconds()})
	}
	for _, c := range []struct {
		name string
		src  string
		want []row
	}{{"exp4", src4, want4}, {"exp5", src5, want5}} {
		sc, err := scenario.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sim, err := scenario.RunSim(sc)
		if err != nil {
			t.Fatalf("%s on sim: %v", c.name, err)
		}
		live, err := scenario.RunLive(sc)
		if err != nil {
			t.Fatalf("%s on live: %v", c.name, err)
		}
		if len(sim.Epochs) != len(c.want) || len(live.Epochs) != len(c.want) {
			t.Fatalf("%s: %d sim and %d live epochs, want %d", c.name, len(sim.Epochs), len(live.Epochs), len(c.want))
		}
		for e, ep := range sim.Epochs {
			if got := (row{ep.Active, ep.Stranded, ep.Packets, ep.Requiescence.Microseconds()}); got != c.want[e] {
				t.Fatalf("%s epoch %d: script row %+v, experiment row %+v", c.name, e, got, c.want[e])
			}
			if live.Epochs[e].Packets == 0 && ep.Packets > 0 {
				t.Fatalf("%s epoch %d: live counted no packets", c.name, e)
			}
		}
	}
}
