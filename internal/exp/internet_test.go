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

// TestInternetPaperValidated pins the smallest rung end to end: generated
// topology, join burst, oracle validation.
func TestInternetPaperValidated(t *testing.T) {
	res, err := RunInternet(InternetConfig{
		Params:   topology.InternetPaper,
		Sessions: 80,
		Seed:     1,
		Validate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets == 0 || res.Quiescence <= 0 {
		t.Fatalf("the join burst sent %d packets, quiesced at %v", res.Packets, res.Quiescence)
	}
	t.Logf("paper rung: %d routers, %d sessions, q=%v, %d packets",
		res.Routers, res.Sessions, res.Quiescence, res.Packets)
}

// TestInternetDeterministic: topology generation is byte-identical for a
// fixed seed, a run does not perturb the generator's seed-funneled RNG
// stream, and two runs — with the full and the incremental oracle — produce
// identical results.
func TestInternetDeterministic(t *testing.T) {
	base, err := topology.GenerateInternet(topology.InternetPaper, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := hashTopology(base)
	var refQ time.Duration
	var refPkts uint64
	for i, inc := range []bool{false, true} {
		res, err := RunInternet(InternetConfig{
			Params:            topology.InternetPaper,
			Sessions:          60,
			Seed:              9,
			Validate:          true,
			IncrementalOracle: inc,
		})
		if err != nil {
			t.Fatalf("incremental oracle %v: %v", inc, err)
		}
		if i == 0 {
			refQ, refPkts = time.Duration(res.Quiescence), res.Packets
		} else if time.Duration(res.Quiescence) != refQ || res.Packets != refPkts {
			t.Fatalf("incremental oracle %v diverged: q=%v pkts=%d, want q=%v pkts=%d",
				inc, time.Duration(res.Quiescence), res.Packets, refQ, refPkts)
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
	res, err := RunInternet(InternetConfig{
		Params:   topology.InternetGlobal,
		Sessions: 200,
		Seed:     2,
		Validate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Routers < 10000 {
		t.Fatalf("global rung has %d routers, want ≥ 10000", res.Routers)
	}
	t.Logf("global rung: %d routers, %d links, q=%v, %d packets, %d events",
		res.Routers, res.Links, res.Quiescence, res.Packets, res.Events)
}
