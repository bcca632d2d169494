// Livenet: B-Neck without a simulator. Every protocol task — each session's
// source and destination, and each directed link's router task — runs as its
// own goroutine with a FIFO mailbox, exchanging packets concurrently. The
// paper's quiescence property becomes observable termination: WaitQuiescent
// returns exactly when no control message exists anywhere in the network.
//
// The example builds a two-tier tree, joins sessions from concurrent
// goroutines, perturbs the system, and validates every converged allocation
// against the centralized oracle.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"bneck/internal/graph"
	"bneck/internal/live"
	"bneck/internal/rate"
)

func main() {
	// A small fat-tree-ish topology: one core router, three edge routers,
	// hosts on the edges. Core links 300 Mbps, edge links 100 Mbps.
	g := graph.New()
	coreR := g.AddRouter("core")
	edges := make([]graph.NodeID, 3)
	for i := range edges {
		edges[i] = g.AddRouter(fmt.Sprintf("edge%d", i))
		g.Connect(edges[i], coreR, rate.Mbps(300), 10*time.Microsecond)
	}
	var hosts []graph.NodeID
	for i := 0; i < 12; i++ {
		h := g.AddHost(fmt.Sprintf("h%d", i))
		g.Connect(h, edges[i%3], rate.Mbps(100), time.Microsecond)
		hosts = append(hosts, h)
	}

	rt := live.New(g)
	defer rt.Close()

	// Sessions: each host i talks to host (i+5)%12, crossing the core.
	var sessions []*live.Session
	for i, src := range hosts {
		dst := hosts[(i+5)%len(hosts)]
		p, err := rt.HostPath(src, dst)
		if err != nil {
			log.Fatal(err)
		}
		s, err := rt.NewSession(p)
		if err != nil {
			log.Fatal(err)
		}
		sessions = append(sessions, s)
	}

	// Join all twelve concurrently — true parallelism, no simulator.
	start := time.Now()
	var wg sync.WaitGroup
	for _, s := range sessions {
		wg.Add(1)
		go func(s *live.Session) {
			defer wg.Done()
			s.Join(rate.Inf)
		}(s)
	}
	wg.Wait()
	rt.WaitQuiescent()
	fmt.Printf("12 concurrent joins: quiescent after %v (wall clock)\n", time.Since(start).Round(time.Microsecond))

	validate(rt)
	printRates(sessions)

	// Perturb: half the sessions cap themselves at 10 Mbps.
	start = time.Now()
	for i, s := range sessions {
		if i%2 == 0 {
			s.Change(rate.Mbps(10))
		}
	}
	rt.WaitQuiescent()
	fmt.Printf("\n6 concurrent demand changes: quiescent after %v\n", time.Since(start).Round(time.Microsecond))
	validate(rt)
	printRates(sessions)

	fmt.Println("\nall live allocations match the centralized oracle ✓")
}

func printRates(sessions []*live.Session) {
	for i, s := range sessions {
		r, _ := s.Rate()
		fmt.Printf("  s%-2d %8.2f Mbps", i, r.Float64()/1e6)
		if (i+1)%4 == 0 {
			fmt.Println()
		}
	}
}

// validate checks the live rates against Centralized B-Neck (Figure 1).
func validate(rt *live.Runtime) {
	if err := rt.Validate(); err != nil {
		log.Fatal(err)
	}
}
