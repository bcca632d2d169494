package graph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bneck/internal/graph"
	"bneck/internal/topology"
)

// TestResolverInternetDifferential holds one resolver to the reference on the
// 10k-router internet topology: the 1000 host pairs of an internet_burst
// set-up (one source host each, in host order, destinations drawn from 2000
// hosts) and 2000 random router pairs, first on the intact graph and then
// with 300 router links failed, a third of them in one direction only.
func TestResolverInternetDifferential(t *testing.T) {
	topo, err := topology.GenerateInternet(topology.InternetGlobal, 2011)
	if err != nil {
		t.Fatal(err)
	}
	g := topo.Graph
	hosts := topo.AddHosts(2000)
	rng := rand.New(rand.NewSource(1))
	var hostPairs, routerPairs [][2]graph.NodeID
	for i := range 1000 {
		dst := rng.Intn(len(hosts) - 1)
		if dst >= i {
			dst++ // any host but the source
		}
		hostPairs = append(hostPairs, [2]graph.NodeID{hosts[i], hosts[dst]})
	}
	routers := g.Routers()
	for range 2000 {
		routerPairs = append(routerPairs, [2]graph.NodeID{routers[rng.Intn(len(routers))], routers[rng.Intn(len(routers))]})
	}
	var duplex []graph.LinkID // router links, one direction of each pair
	for _, r := range routers {
		for _, l := range g.Out(r) {
			if link := g.Link(l); g.Node(link.To).Kind == graph.Router && l < link.Reverse {
				duplex = append(duplex, l)
			}
		}
	}

	res := graph.NewResolver(g, 256)
	check := func(phase string) {
		t.Helper()
		unreachable := 0
		for k, pairs := range [][][2]graph.NodeID{hostPairs, routerPairs} {
			query, ref := res.HostPath, graph.RefHostPath
			if k == 1 {
				query, ref = res.RouterPath, graph.RefRouterPath
			}
			for _, p := range pairs {
				got, err := query(p[0], p[1])
				want, wantErr := ref(g, p[0], p[1])
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
					t.Fatalf("%s: path(%d, %d) = %v, %v; reference %v, %v", phase, p[0], p[1], got, err, want, wantErr)
				}
				if !graph.ScratchClean(res) {
					t.Fatalf("%s: path(%d, %d) left its scratch labelled", phase, p[0], p[1])
				}
				if err != nil {
					unreachable++
				}
			}
		}
		t.Logf("%s: %d of %d pairs unreachable", phase, unreachable, len(hostPairs)+len(routerPairs))
	}
	check("intact")
	rng.Shuffle(len(duplex), func(i, j int) { duplex[i], duplex[j] = duplex[j], duplex[i] })
	for i, l := range duplex[:300] {
		g.FailLink(l)
		if i%3 != 0 {
			g.FailLink(g.Link(l).Reverse)
		}
	}
	check("300 failed")
}
