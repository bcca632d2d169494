package network

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

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
// stays in cache, chains=1024 does not (≈ 10 MB of link records), and the
// distance between the two is what the memory layout still costs once Emit
// has prefetched the receiving hop's record at send: chains=1024 against
// chains=64 is that prefetch's layer-local number (medians of alternating
// runs on 2 vCPUs: chains=1024 went from 564 to 341 ns/pkt, chains=64 from
// 181 to 179, so the cold/warm gap fell from ×3.1 to ×1.9). Moving what only
// a shared link needs out of the record (432 → 192 bytes, DESIGN.md §5)
// took chains=1024 from 351 to 245 ns/pkt (medians of six alternating
// runs, all six won) and left chains=64 in its noise (225 → 191, four of
// six). Reading no Session on a link hop — the delivery carries the
// receiving record, hop tables are indexed by session ID, the engine keys
// events with one sequence (DESIGN.md §3, "What a hop costs") — took
// chains=1024 from 199 to 154 ns/pkt (six alternating runs, all six won)
// and chains=64 from 152 to 141 (four of six, inside its noise). allocs/pkt counts everything the timed runs allocate, the records
// created by the joins included: one record per link over its seven
// packets, the hop tables and the warm-up of the delivery pool — ≈ 0.17; a
// steady-state packet allocates nothing
// (TestSteadyStateEmitAllocatesNothing). B/linkrec is the
// size of that record, which a packet's visit to a link reads from
// (TestLinkRecordFootprint bounds it).
func BenchmarkChainHop(b *testing.B) {
	const routers = 32
	for _, chains := range []int{64, 1024} {
		b.Run(fmt.Sprintf("chains=%d", chains), func(b *testing.B) {
			var packets, mallocs uint64
			var ms runtime.MemStats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				n, eng, sessions := newChains(b, chains, routers)
				burst := func(schedule func(s *Session, at sim.Time)) { chainBurst(n, eng, sessions, schedule) }
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
			b.ReportMetric(float64(unsafe.Sizeof(linkRec{})), "B/linkrec")
		})
	}
}

// newChains builds chains disjoint chains host–routers routers–host, each
// hop's delay spread over 1–50 µs, and a network over them with one
// unjoined session per chain.
func newChains(tb testing.TB, chains, routers int) (*Network, *sim.Engine, []*Session) {
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
	n := New(g, eng, Config{})
	sessions := make([]*Session, chains)
	for c, e := range ends {
		path, err := n.HostPath(e[0], e[1])
		if err != nil {
			tb.Fatal(err)
		}
		if sessions[c], err = n.NewSession(e[0], e[1], path); err != nil {
			tb.Fatal(err)
		}
	}
	return n, eng, sessions
}

// chainBurst schedules one operation per session, 1 µs apart (wrapping every
// 1000) from 1 ms past now, and runs to quiescence.
func chainBurst(n *Network, eng *sim.Engine, sessions []*Session, schedule func(s *Session, at sim.Time)) {
	start := eng.Now() + time.Millisecond
	for c, s := range sessions {
		schedule(s, start+time.Duration(c%1000)*time.Microsecond)
	}
	n.Run()
}

// BenchmarkValidate is one quiescent-state check (Validate, control.Check)
// on BenchmarkChainHop's out-of-cache shape after its join burst: 1024
// chains of 32 routers, one session each, so the oracle solves 1024
// sessions and the sweep checks 33,792 link tasks of one session each.
// ms/op is the whole check, ns/task the same time per link task.
func BenchmarkValidate(b *testing.B) {
	n, eng, sessions := newChains(b, 1024, 32)
	chainBurst(n, eng, sessions, func(s *Session, at sim.Time) { n.ScheduleJoin(s, at, rate.Inf) })
	tasks := 0
	for range n.tasks {
		tasks++
	}
	for b.Loop() {
		if err := n.Validate(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tasks), "ns/task")
}
