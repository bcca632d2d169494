package graph_test

import (
	"sort"
	"testing"

	"bneck/internal/graph"
	"bneck/internal/topology"
)

// BenchmarkHostPath times path resolution. On the 10k-router internet
// topology: sessions as the paper's methodology places them (one source host
// each, in host order), the same pairs grouped by source router, one pair
// asked over and over, and the first query after a FailLink (what a
// migration pays). On the Medium transit-stub network of churn_wan (WAN
// delays, 3000 hosts): host order again. The resolver is memoryless, so the
// orders differ only in which pairs they ask; a new resolver for every pass
// over the pairs charges its scratch allocation to that pass. Run with
// -benchmem: a query on a sized resolver allocates the returned path and
// nothing else.
//
//	go test ./internal/graph -run '^$' -bench HostPath -benchmem
func BenchmarkHostPath(b *testing.B) {
	topo, err := topology.GenerateInternet(topology.InternetGlobal, 1)
	if err != nil {
		b.Fatal(err)
	}
	g := topo.Graph
	hosts := topo.AddHosts(2000)
	pairs := make([][2]graph.NodeID, 1000)
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{hosts[i], hosts[1000+(i*7919)%1000]}
	}
	grouped := append([][2]graph.NodeID(nil), pairs...)
	sort.SliceStable(grouped, func(i, j int) bool {
		return g.HostRouter(grouped[i][0]) < g.HostRouter(grouped[j][0])
	})

	resolveAll := func(b *testing.B, g *graph.Graph, pairs [][2]graph.NodeID) {
		for i := 0; i < b.N; i += len(pairs) {
			res := graph.NewResolver(g, 256)
			for _, p := range pairs[:min(len(pairs), b.N-i)] {
				if _, err := res.HostPath(p[0], p[1]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("host-order", func(b *testing.B) {
		b.ReportAllocs()
		resolveAll(b, g, pairs)
	})
	b.Run("grouped-by-source", func(b *testing.B) {
		b.ReportAllocs()
		resolveAll(b, g, grouped)
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		res := graph.NewResolver(g, 256)
		p := pairs[0]
		res.HostPath(p[0], p[1])
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := res.HostPath(p[0], p[1]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("medium-host-order", func(b *testing.B) {
		b.ReportAllocs()
		ts, err := topology.Generate(topology.Medium, topology.WAN, 2011)
		if err != nil {
			b.Fatal(err)
		}
		hosts := ts.AddHosts(3000)
		pairs := make([][2]graph.NodeID, 1500)
		for i := range pairs {
			pairs[i] = [2]graph.NodeID{hosts[i], hosts[1500+(i*7919)%1500]}
		}
		b.ResetTimer()
		resolveAll(b, ts.Graph, pairs)
	})
	b.Run("first-after-FailLink", func(b *testing.B) {
		b.ReportAllocs()
		res := graph.NewResolver(g, 256)
		// A core link: failing it leaves the graph connected.
		link := g.Out(topo.Core[0])[0]
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			b.StopTimer()
			res.HostPath(p[0], p[1])
			g.FailLink(link)
			b.StartTimer()
			_, err := res.HostPath(p[0], p[1])
			b.StopTimer()
			g.RestoreLink(link)
			b.StartTimer()
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
