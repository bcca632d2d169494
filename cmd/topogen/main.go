// Command topogen generates a transit-stub topology and describes it:
// router/link counts per tier, degree distribution, path-length statistics
// over random host pairs, and the propagation-delay profile. Useful for
// sanity-checking the gt-itm substitute against the paper's setup.
//
// Usage:
//
//	topogen [-size small|medium|big] [-scenario lan|wan] [-hosts N] [-pairs N] [-seed S]
//	topogen -internet [-size small|medium|big] [-hosts N] [-pairs N] [-seed S]
//
// -size names the same three scales as cmd/bneck; with -internet they are
// the paper, metro and global rungs. The path statistics draw -pairs host
// pairs, which needs at least two hosts; -pairs 0 skips them.
//
// With -internet the command generates the hierarchical internet-scale
// topology instead (core/metro/edge tiers, power-law fringe, geography-
// derived latency bands; -scenario is ignored) and additionally reports the
// per-tier router counts and the router degree distribution — the evidence
// that the preferential-attachment fringe is heavy-tailed.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	"bneck/internal/graph"
	"bneck/internal/topology"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("topogen: ")

	var (
		sizeName = flag.String("size", "small", "topology size: small, medium, big")
		scenName = flag.String("scenario", "lan", "propagation scenario: lan, wan (ignored with -internet)")
		internet = flag.Bool("internet", false, "generate the hierarchical internet-scale topology (core/metro/edge tiers, power-law fringe) instead of transit-stub")
		hosts    = flag.Int("hosts", 100, "hosts to attach")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		pairs    = flag.Int("pairs", 200, "random host pairs for path statistics")
	)
	flag.Parse()

	switch {
	case *hosts < 0:
		log.Fatalf("negative -hosts %d", *hosts)
	case *pairs < 0:
		log.Fatalf("negative -pairs %d", *pairs)
	case *hosts < 2 && *pairs > 0:
		log.Fatalf("-pairs %d needs at least two hosts, have -hosts %d", *pairs, *hosts)
	}
	topo, err := topology.GenerateByName(*sizeName, *scenName, *internet, *seed)
	if err != nil {
		log.Fatal(err)
	}
	topo.AddHosts(*hosts)
	g := topo.Topology()

	switch t := topo.(type) {
	case *topology.Network:
		fmt.Printf("topology %s / %s (seed %d)\n", t.Params.Name, t.Scenario, *seed)
		fmt.Printf("  transit routers : %d\n", len(t.TransitRouters))
		fmt.Printf("  stub routers    : %d\n", len(t.StubRouters))
		fmt.Printf("  hosts           : %d\n", len(t.Hosts))
	case *topology.Internet:
		fmt.Printf("topology %s / internet (seed %d)\n", t.Params.Name, *seed)
		fmt.Printf("  core routers    : %d (%d regions)\n", len(t.Core), t.Params.Regions)
		fmt.Printf("  metro routers   : %d (%d metros)\n", len(t.Metro), t.Params.Regions*t.Params.MetrosPerRegion)
		fmt.Printf("  edge routers    : %d\n", len(t.Edge))
		fmt.Printf("  hosts           : %d\n", len(t.Hosts))
	}
	fmt.Printf("  directed links  : %d\n", g.NumLinks())

	// Capacity tiers.
	tierCount := map[string]int{}
	var minProp, maxProp time.Duration
	first := true
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(graph.LinkID(i))
		tierCount[l.Capacity.String()]++
		if first || l.Propagation < minProp {
			minProp = l.Propagation
		}
		if first || l.Propagation > maxProp {
			maxProp = l.Propagation
		}
		first = false
	}
	var tiers []string
	for t := range tierCount {
		tiers = append(tiers, t)
	}
	sort.Strings(tiers)
	fmt.Println("  capacity tiers  :")
	for _, t := range tiers {
		fmt.Printf("    %14s bps × %d links\n", t, tierCount[t])
	}
	fmt.Printf("  propagation     : %v … %v\n", minProp, maxProp)

	if *internet {
		printDegrees(g)
	}

	if *pairs == 0 {
		return
	}
	// Path statistics over random pairs.
	res := graph.NewResolver(g, 256)
	var lengths []int
	for i := 0; i < *pairs; i++ {
		src, dst := topo.RandomHostPair()
		p, err := res.HostPath(src, dst)
		if err != nil {
			log.Fatalf("path %d: %v", i, err)
		}
		lengths = append(lengths, len(p))
	}
	sort.Ints(lengths)
	sum := 0
	for _, l := range lengths {
		sum += l
	}
	fmt.Printf("  path lengths    : min %d, median %d, mean %.1f, max %d (over %d pairs)\n",
		lengths[0], lengths[len(lengths)/2], float64(sum)/float64(len(lengths)),
		lengths[len(lengths)-1], len(lengths))
}

// printDegrees summarizes the router degree distribution (host links
// excluded): a histogram plus the max/mean ratio that evidences the
// preferential-attachment heavy tail.
func printDegrees(g *graph.Graph) {
	deg := map[graph.NodeID]int{}
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(graph.LinkID(i))
		if g.Node(l.From).Kind != graph.Router || g.Node(l.To).Kind != graph.Router {
			continue
		}
		deg[l.From]++
	}
	hist := map[int]int{}
	max, sum := 0, 0
	for _, d := range deg {
		hist[d]++
		sum += d
		if d > max {
			max = d
		}
	}
	if len(deg) == 0 {
		return
	}
	var degrees []int
	for d := range hist {
		degrees = append(degrees, d)
	}
	sort.Ints(degrees)
	mean := float64(sum) / float64(len(deg))
	fmt.Printf("  router degrees  : mean %.1f, max %d (%.1f× mean)\n", mean, max, float64(max)/mean)
	for _, d := range degrees {
		fmt.Printf("    degree %3d × %d routers\n", d, hist[d])
	}
}
