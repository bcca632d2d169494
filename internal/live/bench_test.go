package live

import (
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"bneck/internal/graph"
	"bneck/internal/rate"
	"bneck/internal/topology"
)

// BenchmarkLiveConvergence measures wall-clock time for a full
// join-to-quiescence cycle on the concurrent actor runtime (no simulator):
// the protocol's real message-passing cost on this machine.
func BenchmarkLiveConvergence(b *testing.B) {
	for _, n := range []int{8, 64, 256} {
		b.Run("sessions="+strconv.Itoa(n), func(b *testing.B) {
			topo, err := topology.Generate(topology.Small, topology.LAN, 17)
			if err != nil {
				b.Fatal(err)
			}
			topo.AddHosts(2 * n)
			res := graph.NewResolver(topo.Graph, 128)
			paths := make([]graph.Path, n)
			for i := range paths {
				src, dst := topo.RandomHostPair()
				p, err := res.HostPath(src, dst)
				if err != nil {
					b.Fatal(err)
				}
				paths[i] = p
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt := New(topo.Graph)
				sessions := make([]*Session, n)
				for j, p := range paths {
					s, err := rt.NewSession(p)
					if err != nil {
						b.Fatal(err)
					}
					sessions[j] = s
				}
				start := time.Now()
				for _, s := range sessions {
					s.Join(rate.Inf)
				}
				rt.WaitQuiescent()
				b.ReportMetric(float64(time.Since(start).Microseconds()), "us_to_quiescence")
				rt.Close()
			}
		})
	}
}

func totalPackets(rt *Runtime) uint64 {
	var n uint64
	for _, lc := range rt.LinkPackets() {
		n += lc.Packets
	}
	return n
}

// BenchmarkLiveEmitContention measures the runtime's packet throughput under
// maximal Emit concurrency: a join storm from many goroutines over one
// shared runtime, every link task receiving packets of many sessions at
// once. pkts/sec is packets counted by the per-link counters per wall
// second.
func BenchmarkLiveEmitContention(b *testing.B) {
	topo, err := topology.Generate(topology.Small, topology.LAN, 17)
	if err != nil {
		b.Fatal(err)
	}
	const sessions = 256
	hosts := topo.AddHosts(2 * sessions)
	res := graph.NewResolver(topo.Graph, 128)
	rng := rand.New(rand.NewSource(5))
	paths := make([]graph.Path, sessions)
	for i := range paths {
		src := hosts[i]
		dst := hosts[rng.Intn(len(hosts))]
		for dst == src {
			dst = hosts[rng.Intn(len(hosts))]
		}
		p, err := res.HostPath(src, dst)
		if err != nil {
			b.Fatal(err)
		}
		paths[i] = p
	}
	var packets uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt := New(topo.Graph)
		ss := make([]*Session, sessions)
		for j, p := range paths {
			s, err := rt.NewSession(p)
			if err != nil {
				b.Fatal(err)
			}
			ss[j] = s
		}
		var wg sync.WaitGroup
		for _, s := range ss {
			wg.Add(1)
			go func(s *Session) {
				defer wg.Done()
				s.Join(rate.Inf)
			}(s)
		}
		wg.Wait()
		rt.WaitQuiescent()
		packets += totalPackets(rt)
		rt.Close()
	}
	b.ReportMetric(float64(packets)/b.Elapsed().Seconds(), "pkts/sec")
}

// BenchmarkLiveHop measures the uncontended per-hop floor: one session over
// a 16-link chain, nothing else in the runtime, probe cycles driven by
// Change. Every packet finds its target idle, so each hop is a claim onto
// the list of the one worker the Change started, batches of one — the cost
// batching cannot amortise. One iteration is 1000 cycles, so the fixed
// -benchtime=3x of `make bench` measures ≈ 150k packets; allocs/op is per
// iteration, allocs/pkt the figure to watch.
func BenchmarkLiveHop(b *testing.B) {
	const links, cycles = 16, 1000
	g := graph.New()
	src := g.AddHost("src")
	prev := src
	for i := 1; i < links; i++ {
		r := g.AddRouter("r" + strconv.Itoa(i))
		g.Connect(prev, r, rate.Mbps(100), time.Microsecond)
		prev = r
	}
	dst := g.AddHost("dst")
	g.Connect(prev, dst, rate.Mbps(100), time.Microsecond)
	path, err := graph.NewResolver(g, 4).HostPath(src, dst)
	if err != nil {
		b.Fatal(err)
	}
	rt := New(g)
	defer rt.Close()
	s, err := rt.NewSession(path)
	if err != nil {
		b.Fatal(err)
	}
	s.Join(rate.Mbps(1))
	rt.WaitQuiescent()
	before := totalPackets(rt)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < cycles; c++ {
			s.Change(rate.Mbps(int64(1 + c%2)))
			rt.WaitQuiescent()
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	packets := float64(totalPackets(rt) - before)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/packets, "ns/pkt")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/packets, "allocs/pkt")
}

// BenchmarkLiveFanout measures the case a worker's private list could hurt:
// 64 sessions share one bottleneck link, and a SetLinkCapacity on it
// re-probes them all — a cascade 64 sessions wide that starts from a single
// claim, so one worker runs all of it however many CPUs are idle. Run it at
// -cpu 1,2: the two ns/pkt figures are the price of that serialisation.
func BenchmarkLiveFanout(b *testing.B) {
	const sessions, cycles = 64, 100
	g := graph.New()
	r1, r2 := g.AddRouter("r1"), g.AddRouter("r2")
	neck, _ := g.Connect(r1, r2, rate.Mbps(640), time.Microsecond)
	rt := New(g)
	defer rt.Close()
	for i := 0; i < sessions; i++ {
		src, dst := g.AddHost("s"+strconv.Itoa(i)), g.AddHost("d"+strconv.Itoa(i))
		g.Connect(src, r1, rate.Mbps(100), time.Microsecond)
		g.Connect(r2, dst, rate.Mbps(100), time.Microsecond)
		p, err := rt.HostPath(src, dst)
		if err != nil {
			b.Fatal(err)
		}
		s, err := rt.NewSession(p)
		if err != nil {
			b.Fatal(err)
		}
		s.Join(rate.Inf)
	}
	rt.WaitQuiescent()
	before := totalPackets(rt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < cycles; c++ {
			rt.SetLinkCapacity(rate.Mbps(int64(320+320*(c%2))), neck)
			rt.WaitQuiescent()
		}
	}
	b.StopTimer()
	if err := rt.Validate(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(totalPackets(rt)-before), "ns/pkt")
}
