package topology

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
	"time"

	"bneck/internal/graph"
	"bneck/internal/rate"
)

// hashInternet folds every structural byte of a generated topology — nodes,
// names, links, capacities, propagation delays — into one digest, the
// "byte-identical" witness the determinism tests compare.
func hashInternet(n *Internet) uint64 {
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

func TestInternetPresetSizes(t *testing.T) {
	for _, p := range []InternetParams{InternetPaper, InternetMetro, InternetGlobal} {
		want := p.Routers()
		n, err := GenerateInternet(p, 1)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		got := len(n.Core) + len(n.Metro) + len(n.Edge)
		if got != want || n.Graph.NumNodes() != want {
			t.Fatalf("%s: %d routers generated, Routers() = %d", p.Name, got, want)
		}
		t.Logf("%s: %d routers (%d core, %d metro, %d edge), %d directed links",
			p.Name, got, len(n.Core), len(n.Metro), len(n.Edge), n.Graph.NumLinks())
	}
	if InternetPaper.Routers() != 40 {
		t.Fatalf("InternetPaper.Routers() = %d, want 40", InternetPaper.Routers())
	}
	if InternetGlobal.Routers() < 10000 {
		t.Fatalf("InternetGlobal.Routers() = %d, want ≥ 10000", InternetGlobal.Routers())
	}
}

func TestInternetDeterminism(t *testing.T) {
	a, err := GenerateInternet(InternetMetro, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateInternet(InternetMetro, 42)
	if err != nil {
		t.Fatal(err)
	}
	if hashInternet(a) != hashInternet(b) {
		t.Fatal("same seed produced different topologies")
	}
	c, err := GenerateInternet(InternetMetro, 43)
	if err != nil {
		t.Fatal(err)
	}
	if hashInternet(a) == hashInternet(c) {
		t.Fatal("different seeds produced identical topologies")
	}
	// Host attachment stays on the same stream: regenerate and re-attach.
	a.AddHosts(64)
	b.AddHosts(64)
	if hashInternet(a) != hashInternet(b) {
		t.Fatal("same seed produced different host attachments")
	}
}

// countSink counts streamed elements without keeping any graph — the
// streaming contract: a consumer that only needs aggregates never pays for
// an adjacency structure.
type countSink struct {
	routers, links int
	perTier        [3]int
}

func (c *countSink) AddRouter(name string, tier Tier, region int32) graph.NodeID {
	id := graph.NodeID(c.routers)
	c.routers++
	c.perTier[tier]++
	return id
}

func (c *countSink) Connect(a, b graph.NodeID, cap rate.Rate, d time.Duration) { c.links++ }

func TestInternetStreamingMatchesGraph(t *testing.T) {
	var cs countSink
	if err := StreamInternet(InternetMetro, 7, &cs); err != nil {
		t.Fatal(err)
	}
	n, err := GenerateInternet(InternetMetro, 7)
	if err != nil {
		t.Fatal(err)
	}
	if cs.routers != n.Graph.NumNodes() {
		t.Fatalf("streamed %d routers, graph has %d nodes", cs.routers, n.Graph.NumNodes())
	}
	// Graph.Connect adds both directions; the stream emits each link once.
	if 2*cs.links != n.Graph.NumLinks() {
		t.Fatalf("streamed %d links, graph has %d directed links", cs.links, n.Graph.NumLinks())
	}
	if cs.perTier[TierCore] != len(n.Core) || cs.perTier[TierMetro] != len(n.Metro) || cs.perTier[TierEdge] != len(n.Edge) {
		t.Fatalf("tier counts diverge: stream %v, graph %d/%d/%d",
			cs.perTier, len(n.Core), len(n.Metro), len(n.Edge))
	}
}

// regionSink builds the graph like GenerateInternet and records each
// router's region, which the generated topology itself does not keep.
type regionSink struct {
	internetBuild
	region []int32
}

func (s *regionSink) AddRouter(name string, tier Tier, region int32) graph.NodeID {
	s.region = append(s.region, region)
	return s.internetBuild.AddRouter(name, tier, region)
}

func TestInternetLatencyAndCapacityBands(t *testing.T) {
	n := &Internet{Graph: graph.New()}
	sink := &regionSink{internetBuild: internetBuild{n}}
	if err := StreamInternet(InternetMetro, 11, sink); err != nil {
		t.Fatal(err)
	}
	g, region := n.Graph, sink.region
	tier := make(map[graph.NodeID]Tier, g.NumNodes())
	for _, id := range n.Core {
		tier[id] = TierCore
	}
	for _, id := range n.Metro {
		tier[id] = TierMetro
	}
	for _, id := range n.Edge {
		tier[id] = TierEdge
	}
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(graph.LinkID(i))
		ta, tb := tier[l.From], tier[l.To]
		switch {
		case ta == TierCore && tb == TierCore:
			if !l.Capacity.Equal(CoreLinkCapacity) {
				t.Fatalf("core link %d capacity %v", i, l.Capacity)
			}
			if region[l.From] != region[l.To] {
				// Geography: inter-region delays start at the 5 ms floor.
				if l.Propagation < 5*time.Millisecond {
					t.Fatalf("inter-region link %d delay %v < 5ms", i, l.Propagation)
				}
			} else if l.Propagation < time.Millisecond || l.Propagation >= 4*time.Millisecond {
				t.Fatalf("intra-region core link %d delay %v outside [1ms,4ms)", i, l.Propagation)
			}
		case ta == TierEdge || tb == TierEdge:
			if !l.Capacity.Equal(EdgeLinkCapacity) {
				t.Fatalf("edge link %d capacity %v", i, l.Capacity)
			}
			if l.Propagation < 20*time.Microsecond || l.Propagation >= 100*time.Microsecond {
				t.Fatalf("edge link %d delay %v outside [20µs,100µs)", i, l.Propagation)
			}
		default: // metro ring or metro→core uplink
			if !l.Capacity.Equal(MetroLinkCapacity) {
				t.Fatalf("metro link %d capacity %v", i, l.Capacity)
			}
			if l.Propagation < 50*time.Microsecond || l.Propagation >= time.Millisecond {
				t.Fatalf("metro link %d delay %v outside [50µs,1ms)", i, l.Propagation)
			}
		}
	}
	// Inter-region links land only between core routers: every cross-region
	// link must have core endpoints on both sides.
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(graph.LinkID(i))
		if region[l.From] != region[l.To] && (tier[l.From] != TierCore || tier[l.To] != TierCore) {
			t.Fatalf("cross-region link %d not core-core (%v-%v)", i, tier[l.From], tier[l.To])
		}
	}
}

func TestInternetPowerLawFringe(t *testing.T) {
	n, err := GenerateInternet(InternetMetro, 5)
	if err != nil {
		t.Fatal(err)
	}
	g := n.Graph
	// Preferential attachment concentrates edge uplinks: the most popular
	// metro router must carry several times the median metro degree.
	max, sum := 0, 0
	for _, id := range n.Metro {
		d := len(slices.Collect(g.Out(id)))
		sum += d
		if d > max {
			max = d
		}
	}
	mean := sum / len(n.Metro)
	if max < 2*mean {
		t.Fatalf("no heavy tail: max metro degree %d, mean %d", max, mean)
	}
	t.Logf("metro degree: max %d, mean %d over %d routers", max, mean, len(n.Metro))
}
