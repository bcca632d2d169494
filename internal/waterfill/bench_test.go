package waterfill_test

// Benchmarks of the full oracle on the three instance shapes the repository's
// benchmark validates (benchmark/README.md): disjoint chains with many demand
// levels and no sharing, a transit-stub WAN with dense sharing and capacities
// cut to thirds and sevenths so shares leave the int64 path, and the
// 10k-router internet topology with long paths and sparse sharing.

import (
	"math/rand"
	"testing"

	"bneck/internal/graph"
	"bneck/internal/rate"
	"bneck/internal/topology"
	"bneck/internal/waterfill"
)

// benchSessions is an instance as a transport holds it: paths over the
// topology's own link ids, a demand per session, a capacity per link.
type benchSessions struct {
	capacity func(graph.LinkID) rate.Rate
	paths    []graph.Path
	demands  []rate.Rate
}

func (bs *benchSessions) fill(a *waterfill.Assembler[graph.LinkID]) {
	a.Reset()
	for i, p := range bs.paths {
		a.Add(bs.demands[i], p)
	}
}

// chains50levels: 1500 disjoint chains of 33 links at 100 Mbps, one session
// each, demands cycling through 1..50 Mbps — the chains_bare instance after
// a demand-change epoch: 51 000 links (virtual ones included), 50 levels.
func chains50levels(testing.TB) *benchSessions {
	const chains, hops = 1500, 33
	bs := &benchSessions{capacity: func(graph.LinkID) rate.Rate { return rate.Mbps(100) }}
	for c := 0; c < chains; c++ {
		p := make(graph.Path, hops)
		for k := range p {
			p[k] = graph.LinkID(c*hops + k)
		}
		bs.paths = append(bs.paths, p)
		bs.demands = append(bs.demands, rate.Mbps(int64(1+c%50)))
	}
	return bs
}

// placed draws sessions between random host pairs of a generated topology;
// finitePct percent of them get a finite demand of 1..100 Mbps.
func placed(tb testing.TB, topo topology.Hosted, g *graph.Graph, sessions, finitePct int) *benchSessions {
	hosts := topo.AddHosts(2 * sessions)
	res := graph.NewResolver(g, 256)
	rng := rand.New(rand.NewSource(24))
	bs := &benchSessions{capacity: func(l graph.LinkID) rate.Rate { return g.Link(l).Capacity }}
	for i := 0; i < sessions; i++ {
		p, err := res.HostPath(hosts[2*i], hosts[2*i+1])
		if err != nil {
			tb.Fatal(err)
		}
		d := rate.Inf
		if rng.Intn(100) < finitePct {
			d = rate.Mbps(int64(1 + rng.Intn(100)))
		}
		bs.paths = append(bs.paths, p)
		bs.demands = append(bs.demands, d)
	}
	return bs
}

// wanWide: 630 sessions on the Medium transit-stub WAN (churn_wan's size),
// every third router link cut to a third or a seventh of its capacity.
func wanWide(tb testing.TB) *benchSessions {
	topo, err := topology.Generate(topology.Medium, topology.WAN, 1)
	if err != nil {
		tb.Fatal(err)
	}
	bs := placed(tb, topo, topo.Graph, 630, 30)
	g := topo.Graph
	bs.capacity = func(l graph.LinkID) rate.Rate {
		c := g.Link(l).Capacity
		switch l % 6 {
		case 0:
			return c.DivInt(3)
		case 3:
			return c.DivInt(7)
		}
		return c
	}
	return bs
}

// internetSparse: 1000 sessions on the 10 080-router internet topology
// (internet_burst's size), a quarter with finite demands.
func internetSparse(tb testing.TB) *benchSessions {
	topo, err := topology.GenerateInternet(topology.InternetGlobal, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return placed(tb, topo, topo.Graph, 1000, 25)
}

var benchCells = []struct {
	name  string
	build func(testing.TB) *benchSessions
}{
	{"chains50levels", chains50levels},
	{"wanWide", wanWide},
	{"internetSparse", internetSparse},
}

var benchRates []rate.Rate

// BenchmarkSolve is one full solve of a kept instance on a reused Solver.
func BenchmarkSolve(b *testing.B) {
	for _, c := range benchCells {
		b.Run(c.name, func(b *testing.B) {
			bs := c.build(b)
			a := waterfill.Assembler[graph.LinkID]{Capacity: bs.capacity}
			bs.fill(&a)
			b.ReportAllocs()
			for b.Loop() {
				var err error
				if benchRates, err = a.Solve(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAssemble is what a Validate pays before the solve: the instance
// rebuilt from the transport's sessions in a reused Assembler.
func BenchmarkAssemble(b *testing.B) {
	for _, c := range benchCells {
		b.Run(c.name, func(b *testing.B) {
			bs := c.build(b)
			a := waterfill.Assembler[graph.LinkID]{Capacity: bs.capacity}
			b.ReportAllocs()
			for b.Loop() {
				bs.fill(&a)
			}
		})
	}
}
