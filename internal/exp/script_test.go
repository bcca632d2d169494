package exp

import (
	"testing"

	"bneck/internal/scenario"
	"bneck/internal/topology"
)

// TestExperimentScriptsBothTransports generates a small cell of every
// scripted experiment (1, 2, 4 and 5) and runs the scripts on the simulator
// and on the live runtime, where every epoch must validate. The simulator's
// epochs must be the rows the experiments report.
func TestExperimentScriptsBothTransports(t *testing.T) {
	cfg1 := smallExp1()
	cfg1.Scenarios, cfg1.SessionCounts = []topology.Scenario{topology.LAN}, []int{40}
	rows1, err := RunExperiment1(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	src1, _, err := BurstScript(topology.Small, topology.LAN, false, cfg1.Seed, 40, unbounded)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := DefaultExp2()
	cfg2.Topology, cfg2.Base, cfg2.Dyn = topology.Small, 60, 12
	res2, err := RunExperiment2(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	src2, err := exp2Script(cfg2)
	if err != nil {
		t.Fatal(err)
	}
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
	want1 := []row{{40, 0, rows1[0].Packets, rows1[0].Quiescence.Microseconds()}}
	var want2, want4, want5 []row
	for i, p := range res2.Phases {
		// Active after each phase: join, leave, change, join, then a join and
		// a leave of Dyn sessions each.
		active := []int{60, 48, 48, 60, 60}[i]
		want2 = append(want2, row{active, 0, p.Packets, p.Took.Microseconds()})
	}
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
	}{{"exp1", src1, want1}, {"exp2", src2, want2}, {"exp4", src4, want4}, {"exp5", src5, want5}} {
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
