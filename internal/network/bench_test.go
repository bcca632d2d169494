package network

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"bneck/internal/graph"
	"bneck/internal/rate"
	"bneck/internal/sim"
)

// BenchmarkChainHop is the simulated transport's per-hop floor next to the
// code (the repository's benchmark measures the same shape end to end as
// chains_bare): N disjoint chains host–32 routers–host with one session
// each, so every link task holds a single session and a packet's cost is
// the hop itself — the session's hop table, the link's record, the wire and
// the event queue. One iteration builds the network, then joins every
// session, changes every demand to a finite rate (which moves each session
// into F_e along its chain) and makes every session leave, running to
// quiescence after each burst; only the three runs are timed. chains=64
// stays in cache, chains=1024 does not (≈ 20 MB of link records), and the
// distance between the two is what the memory layout costs. allocs/pkt
// counts everything the timed runs allocate, the records created by the
// joins included: one record per link over its seven packets, the hop
// tables and the warm-up of the delivery pool — ≈ 0.17; a steady-state packet
// allocates nothing (TestSteadyStateEmitAllocatesNothing).
func BenchmarkChainHop(b *testing.B) {
	const routers = 32
	for _, chains := range []int{64, 1024} {
		b.Run(fmt.Sprintf("chains=%d", chains), func(b *testing.B) {
			var packets, mallocs uint64
			var ms runtime.MemStats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := graph.New()
				ends := make([][2]graph.NodeID, chains)
				for c := range ends {
					src := g.AddHost("src")
					prev := src
					for r := 0; r < routers; r++ {
						next := g.AddRouter("r")
						g.Connect(prev, next, rate.Mbps(100), time.Duration(1+(7*c+13*r)%50)*time.Microsecond)
						prev = next
					}
					dst := g.AddHost("dst")
					g.Connect(prev, dst, rate.Mbps(100), time.Microsecond)
					ends[c] = [2]graph.NodeID{src, dst}
				}
				eng := sim.New()
				n := New(g, eng, Config{ControlPacketBits: 512})
				sessions := make([]*Session, chains)
				for c, e := range ends {
					path, err := n.HostPath(e[0], e[1])
					if err != nil {
						b.Fatal(err)
					}
					if sessions[c], err = n.NewSession(e[0], e[1], path); err != nil {
						b.Fatal(err)
					}
				}
				burst := func(schedule func(s *Session, at sim.Time)) {
					start := eng.Now() + time.Millisecond
					for c, s := range sessions {
						schedule(s, start+time.Duration(c%1000)*time.Microsecond)
					}
					n.Run()
				}
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				b.StartTimer()
				burst(func(s *Session, at sim.Time) { n.ScheduleJoin(s, at, rate.Inf) })
				burst(func(s *Session, at sim.Time) { n.ScheduleChange(s, at, rate.Mbps(int64(1+s.ID%50))) })
				burst(func(s *Session, at sim.Time) { n.ScheduleLeave(s, at) })
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - before
				packets += n.Stats().Total()
				if want := uint64(chains) * 33 * 7; n.Stats().Total() != want {
					b.Fatalf("%d packets, want %d (join 3, change 3, leave 1 per link)", n.Stats().Total(), want)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(packets), "ns/pkt")
			b.ReportMetric(float64(mallocs)/float64(packets), "allocs/pkt")
		})
	}
}
