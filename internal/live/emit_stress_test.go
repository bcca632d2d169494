package live

import (
	"math/rand"
	"sync"
	"testing"

	"bneck/internal/graph"
	"bneck/internal/rate"
	"bneck/internal/topology"
)

// TestLiveChurnEmitStress hammers the Emit path: many sessions join, change
// and leave from concurrent goroutines while topology events fail,
// reconfigure and restore in-use links, so packet emissions race with
// incarnation creation/retirement and link-actor creation. Run with -race
// (CI does) this is the data-race test of the incarnation and link tables;
// the final validation and the packet parity check make sure their readers
// see every entry.
func TestLiveChurnEmitStress(t *testing.T) {
	topo, err := topology.Generate(topology.Small, topology.LAN, 23)
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 64
	hosts := topo.AddHosts(2 * sessions)
	g := topo.Graph
	res := graph.NewResolver(g, 128)
	rt := New(g)
	defer rt.Close()

	rng := rand.New(rand.NewSource(99))
	all := make([]*Session, sessions)
	for i := range all {
		src := hosts[i]
		dst := hosts[rng.Intn(len(hosts))]
		for dst == src {
			dst = hosts[rng.Intn(len(hosts))]
		}
		p, err := res.HostPath(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		s, err := rt.NewSession(p)
		if err != nil {
			t.Fatal(err)
		}
		all[i] = s
	}

	// Phase 1: concurrent joins — the base Emit storm.
	var wg sync.WaitGroup
	for i, s := range all {
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			if i%3 == 0 {
				s.Join(rate.Mbps(int64(1 + i%40)))
			} else {
				s.Join(rate.Inf)
			}
		}(i, s)
	}
	wg.Wait()
	rt.WaitQuiescent()
	if err := rt.Validate(); err != nil {
		t.Fatalf("after join storm: %v", err)
	}

	// Phase 2: churn and topology events race the protocol cascades. Each
	// goroutine drives a disjoint session slice; one more flips a set of
	// in-use router links (failures migrate crossing sessions mid-cascade).
	var targets []graph.LinkID
	for _, s := range all {
		p := s.Path()
		if len(p) >= 3 {
			targets = append(targets, p[1])
		}
		if len(targets) == 4 {
			break
		}
	}
	const rounds = 8
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := g; i < sessions; i += 4 {
					s := all[i]
					switch (i + r) % 3 {
					case 0:
						s.Change(rate.Mbps(int64(1 + (i*r)%60)))
					case 1:
						s.Leave()
					default:
						s.Join(rate.Inf)
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			for _, l := range targets {
				rev := rt.g.LinkReverse(l)
				rt.FailLinks(l, rev)
				rt.RestoreLinks(l, rev)
				// Reconfigure only while the link is up: capacity changes on
				// failed links are outside the supported envelope (the
				// scenario checker rejects them statically) because the
				// re-probe would race the migration teardown.
				rt.SetLinkCapacity(rate.Mbps(int64(50+r)), l, rev)
			}
		}
	}()
	// Rate readers race the rate upcalls: every Change above lands a setRate
	// on an incarnation while these goroutines read it through both the
	// per-session and the all-sessions paths.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := g; i < sessions; i += 2 {
					if lambda, ok := all[i].Rate(); ok && lambda.Sign() < 0 {
						t.Errorf("negative granted rate for session %d", i)
					}
				}
				for id, lambda := range rt.Rates() {
					if lambda.Sign() < 0 {
						t.Errorf("negative granted rate in Rates() for %v", id)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	rt.WaitQuiescent()
	if err := rt.Validate(); err != nil {
		t.Fatalf("after churn storm: %v", err)
	}

	// The per-link counters must come in link order and cover every link
	// that carried traffic.
	counts := rt.LinkPackets()
	if len(counts) == 0 {
		t.Fatal("no link packets recorded")
	}
	var total uint64
	for i, lc := range counts {
		if i > 0 && counts[i-1].Link >= lc.Link {
			t.Fatalf("LinkPackets not sorted: %v before %v", counts[i-1].Link, lc.Link)
		}
		total += lc.Packets
	}
	if total == 0 {
		t.Fatal("zero total packets after a churn storm")
	}
}
