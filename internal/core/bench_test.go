package core

import (
	"testing"

	"bneck/internal/rate"
)

// Ablation: the indexed session table vs the naive Figure 2 transcription
// (modelTable, the reference of the differential tests).
// The protocol evaluates the bottleneck predicate (∀r ∈ Re: λ = Be ∧ IDLE)
// on every Response; with n sessions per link the naive form is O(n) per
// packet, the indexed form O(1). DESIGN.md §5 calls this out as the one
// engineering deviation from the paper's pseudocode.

func fillTable(n int) *table {
	t := newTable(rate.Mbps(int64(n)))
	for s := SessionID(1); int(s) <= n; s++ {
		ent := t.addNew(s, 1)
		t.setIdle(ent, rate.Mbps(1))
	}
	return t
}

func fillNaive(n int) *modelTable {
	t := &modelTable{capacity: rate.Mbps(int64(n)), ents: map[SessionID]*tableEntry{}}
	for s := SessionID(1); int(s) <= n; s++ {
		t.ents[s] = &tableEntry{id: s, inRe: true, mu: Idle, lambda: rate.Mbps(1), hasLambda: true}
	}
	return t
}

func BenchmarkBottleneckPredicate(b *testing.B) {
	for _, n := range []int{10, 100, 1000, 10000} {
		b.Run("indexed/"+itoa(n), func(b *testing.B) {
			t := fillTable(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !t.allReIdleAtBe() {
					b.Fatal("predicate false")
				}
			}
		})
		b.Run("naive/"+itoa(n), func(b *testing.B) {
			t := fillNaive(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !t.allReIdleAtBe() {
					b.Fatal("predicate false")
				}
			}
		})
	}
}

func BenchmarkBeComputation(b *testing.B) {
	for _, n := range []int{100, 10000} {
		b.Run("indexed/"+itoa(n), func(b *testing.B) {
			t := fillTable(n)
			// Half the sessions into Fe to exercise the incremental sum.
			for s := SessionID(1); int(s) <= n/2; s++ {
				t.moveReToFe(t.get(s))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.invalidateBe()
				_ = t.be()
			}
		})
		b.Run("naive/"+itoa(n), func(b *testing.B) {
			t := fillNaive(n)
			for s := SessionID(1); int(s) <= n/2; s++ {
				t.ents[s].inRe = false
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = t.be()
			}
		})
	}
}

// BenchmarkTableGet measures the one lookup every packet pays — session ID
// to entry through the open-addressed index — at the table densities the
// workloads see (one session per link on bare chains, a few on the internet
// topology, dozens to hundreds on a WAN transit link). IDs are strided, as a
// link's share of a network-wide sequential ID space is.
func BenchmarkTableGet(b *testing.B) {
	for _, n := range []int{1, 8, 64, 512} {
		b.Run("sessions="+itoa(n), func(b *testing.B) {
			t := newTable(rate.Mbps(int64(n)))
			ids := make([]SessionID, n)
			for i := range ids {
				ids[i] = SessionID(1 + 37*i)
				t.addNew(ids[i], 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if t.get(ids[i%n]) == nil {
					b.Fatal("session lost")
				}
			}
		})
	}
}

// BenchmarkRateSetChurn measures the idle index under a moving B_e: every
// session of a 64-session link is re-filed, one after the other, at the next
// of a cycle of rates — each revision empties one bucket, member by member,
// and fills another — which is what a link does while it converges.
func BenchmarkRateSetChurn(b *testing.B) {
	const n = 64
	t := newTable(rate.Mbps(1000))
	ents := make([]*tableEntry, n)
	rates := make([]rate.Rate, 12)
	for i := range rates {
		rates[i] = rate.Mbps(1000).DivInt(n + i)
	}
	for i := range ents {
		ents[i] = t.addNew(SessionID(1+37*i), 1)
		t.setIdle(ents[i], rates[0])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.setIdle(ents[i%n], rates[(1+i/n)%len(rates)])
	}
}

// BenchmarkProbeCycle measures one full protocol probe cycle (probe +
// response round trip through one link) including table maintenance: on one
// link with a growing number of resident sessions, and — sparse — on one of
// many single-session links in turn, where the cost is the cache lines a
// visit touches rather than the instructions it runs.
func BenchmarkProbeCycle(b *testing.B) {
	join := func(rl *RouterLink, s SessionID) {
		rl.Receive(Packet{Type: PktJoin, Session: s, Rate: rate.Mbps(1), Bneck: SourceRef}, 1)
		rl.Receive(Packet{Type: PktResponse, Session: s, Resp: RespResponse,
			Rate: rate.Mbps(1), Bneck: LinkRef(99)}, 1)
	}
	cycle := func(rl *RouterLink, s SessionID) {
		rl.Receive(Packet{Type: PktProbe, Session: s, Rate: rate.Mbps(1), Bneck: SourceRef}, 1)
		rl.Receive(Packet{Type: PktResponse, Session: s, Resp: RespResponse,
			Rate: rate.Mbps(1), Bneck: LinkRef(99)}, 1)
	}
	for _, n := range []int{1, 100, 10000} {
		b.Run("resident="+itoa(n), func(b *testing.B) {
			rec := &recorder{}
			rl := NewRouterLink(1, rate.Mbps(int64(n+1)), rec)
			for s := SessionID(2); int(s) <= n+1; s++ {
				join(rl, s)
			}
			join(rl, 1)
			rec.emitted = nil
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle(rl, 1)
				rec.emitted = rec.emitted[:0]
			}
		})
	}
	for _, n := range []int{1000, 50000} {
		b.Run("sparse/links="+itoa(n), func(b *testing.B) {
			rec := &recorder{}
			links := make([]*RouterLink, n)
			for i := range links {
				links[i] = NewRouterLink(LinkRef(i), rate.Mbps(2), rec)
				join(links[i], SessionID(i+1))
				rec.emitted = rec.emitted[:0]
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle(links[i%n], SessionID(i%n+1))
				rec.emitted = rec.emitted[:0]
			}
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
