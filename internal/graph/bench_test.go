package graph_test

import (
	"sort"
	"testing"

	"bneck/internal/graph"
	"bneck/internal/topology"
)

// BenchmarkHostPath times path resolution on the 10k-router internet
// topology in the three orders that matter: sessions as the paper's
// methodology places them (one source host each, in host order — nearly
// every query starts a tree), the same pairs grouped by source router (the
// order the tree cache exists for), and the first query after a FailLink
// has made the cached tree stale (what a migration pays). Run with
// -benchmem: a warm hit allocates the returned path and nothing else.
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

	resolveAll := func(b *testing.B, pairs [][2]graph.NodeID) {
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
		resolveAll(b, pairs)
	})
	b.Run("grouped-by-source", func(b *testing.B) {
		b.ReportAllocs()
		resolveAll(b, grouped)
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
