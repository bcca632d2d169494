package exp

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"bneck/internal/graph"
	"bneck/internal/topology"
)

func hashTopology(n *topology.Internet) uint64 {
	h := fnv.New64a()
	g := n.Graph
	for i := 0; i < g.NumNodes(); i++ {
		nd := g.Node(graph.NodeID(i))
		fmt.Fprintf(h, "n%d|%d|%s\n", nd.ID, nd.Kind, nd.Name)
	}
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(graph.LinkID(i))
		fmt.Fprintf(h, "l%d|%d>%d|%v|%v\n", l.ID, l.From, l.To, l.Capacity, l.Propagation)
	}
	return h.Sum64()
}

// internetBurst is `bneck -internet`: a validated 1 ms join burst with a
// quarter of the demands capped, on the internet rung of size.
func internetBurst(t *testing.T, size topology.Params, sessions int, seed int64) (Exp1Row, *topology.Internet) {
	t.Helper()
	src, topo, err := BurstScript(size, topology.LAN, true, seed, sessions, MixedDemands(0.25, 1, 100))
	if err != nil {
		t.Fatal(err)
	}
	res, err := runScript(src)
	if err != nil {
		t.Fatal(err)
	}
	return BurstRow(res, sessions), topo.(*topology.Internet)
}

// TestInternetPaperValidated pins the smallest rung end to end: generated
// topology, join burst, oracle validation — the numbers
// `bneck -internet -size small -sessions 80` prints.
func TestInternetPaperValidated(t *testing.T) {
	row, topo := internetBurst(t, topology.Small, 80, 1)
	if row.Quiescence != 446648609*time.Nanosecond || row.Packets != 2266 {
		t.Fatalf("paper rung: q=%v after %d packets; want 446.648609ms, 2266", row.Quiescence, row.Packets)
	}
	// Links are counted after host placement.
	if n := topo.Graph.NumLinks(); n != 440 {
		t.Fatalf("paper rung has %d directed links, want 440", n)
	}
}

// TestInternetDeterministic: topology generation is byte-identical for a
// fixed seed, a run does not perturb the generator's seed-funneled RNG
// stream, and two runs of the same config produce identical results.
func TestInternetDeterministic(t *testing.T) {
	base, err := topology.GenerateInternet(topology.InternetPaper, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := hashTopology(base)
	var ref Exp1Row
	for run := 0; run < 2; run++ {
		row, _ := internetBurst(t, topology.Small, 60, 9)
		if run == 0 {
			ref = row
		} else if row != ref {
			t.Fatalf("run %d diverged: %+v, want %+v", run, row, ref)
		}
		again, err := topology.GenerateInternet(topology.InternetPaper, 9)
		if err != nil {
			t.Fatal(err)
		}
		if got := hashTopology(again); got != want {
			t.Fatalf("topology hash %x after a run, want %x", got, want)
		}
	}
}

// TestInternetGlobalSmoke is the CI -short internet smoke: the full
// 10k-router global topology with a scaled-down session count. It runs in
// short mode by design — the point is that the internet rung stays exercised
// in every CI matrix cell.
func TestInternetGlobalSmoke(t *testing.T) {
	if r := topology.InternetGlobal.Routers(); r < 10000 {
		t.Fatalf("global rung has %d routers, want ≥ 10000", r)
	}
	row, topo := internetBurst(t, topology.Big, 200, 2)
	if row.Packets == 0 || row.Quiescence <= 0 {
		t.Fatalf("the join burst sent %d packets, quiesced at %v", row.Packets, row.Quiescence)
	}
	t.Logf("global rung: %d links, q=%v, %d packets", topo.Graph.NumLinks(), row.Quiescence, row.Packets)
}
