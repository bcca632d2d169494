package core

import (
	"math/rand"
	"testing"

	"bneck/internal/rate"
)

// The tests in this file pin the lifetimes of a link's inline storage — the
// table's first entry, the bucket pool's first bucket and the one-element
// first backing arrays — and of the entry index, which a link gets with its
// second session. The differential programs in table_diff_test.go check
// that what they hold is right; these check where it lives and what it
// costs.

// TestSingleSessionLinkAllocatesNothing drives one link through the life of
// a chain link — a session joins, settles, is restricted elsewhere (F_e),
// re-probes, leaves, and a successor joins — and requires every cycle after
// the first to reuse the inline entry and buckets without touching the heap,
// while the departed session's pointers are still in the scratch snapshot
// and on the free lists.
func TestSingleSessionLinkAllocatesNothing(t *testing.T) {
	var sink countEmitter
	rl := NewRouterLink(1, rate.Mbps(100), &sink)
	tb := &rl.tbl
	id := SessionID(0)
	cycle := func() {
		id++
		rl.Receive(Packet{Type: PktJoin, Session: id, Rate: rate.Inf, Bneck: SourceRef}, 1)
		ent := tb.get(id)
		if ent != &tb.first {
			t.Fatalf("session %d not filed in the inline entry", id)
		}
		if ent.bucket != nil || ent.hasLambda || ent.mu != WaitingResponse {
			t.Fatalf("session %d inherited state from its predecessor: %+v", id, ent)
		}
		// Accepted at B_e: idle in R_e, the link is its bottleneck.
		rl.Receive(Packet{Type: PktResponse, Session: id, Resp: RespResponse, Rate: rate.Mbps(100), Bneck: 1}, 1)
		if ent.bucket != &tb.buckets.first {
			t.Fatalf("session %d idle outside the table's inline bucket", id)
		}
		// A finite demand restricts it elsewhere: probe, settle at 7 Mbps,
		// SetBottleneck moves it to F_e.
		rl.Receive(Packet{Type: PktProbe, Session: id, Rate: rate.Mbps(7), Bneck: SourceRef}, 1)
		rl.Receive(Packet{Type: PktResponse, Session: id, Resp: RespResponse, Rate: rate.Mbps(7), Bneck: SourceRef}, 1)
		rl.Receive(Packet{Type: PktSetBottleneck, Session: id}, 1)
		if ent.inRe || ent.bucket != &tb.buckets.first {
			t.Fatalf("session %d did not carry the inline bucket into F_e: %+v", id, ent)
		}
		if err := rl.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		rl.Receive(Packet{Type: PktLeave, Session: id}, 1)
		if tb.sessions() != 0 || tb.firstLive {
			t.Fatalf("leave of session %d left state behind", id)
		}
		if err := rl.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // claims the inline storage
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Fatalf("a join → settle → F_e → leave cycle on a single-session link allocates %v objects, want 0", n)
	}
	if tb.index != nil {
		t.Fatalf("a single-session link allocated an entry index")
	}
	if sink.n == 0 {
		t.Fatalf("the link forwarded nothing")
	}
}

// countEmitter counts emissions and drops them (source_test.go's recorder
// appends, which the allocation count above would see).
type countEmitter struct{ n int }

func (c *countEmitter) Emit(SessionID, int, Direction, Packet) { c.n++ }

// TestInlineEntryAcrossGrowth takes one link 1 → 5 → 1 sessions and back up:
// the first session holds the inline entry, the others live on the heap,
// the second makes the index (four slots, filing the inline entry too) and
// spills the member list; when the first leaves while others stay, the
// inline entry is free and the next join — not a heap entry — takes it and
// is filed in the index, which is never dropped, with the link's state
// matching the oracle throughout.
func TestInlineEntryAcrossGrowth(t *testing.T) {
	p := newPump(t)
	p.addLink(1, rate.Mbps(100))
	tb := &p.link(1).tbl
	var srcs []*SourceNode
	for s := SessionID(1); s <= 5; s++ {
		src := p.addSession(s, 1)
		src.Join(rate.Inf)
		srcs = append(srcs, src)
		p.run(10_000)
		p.checkAll()
		switch {
		case s == 1 && tb.index != nil:
			t.Fatalf("one session made an index")
		case s == 2 && (tb.index == nil || len(tb.index.slots) != minEntrySlots || tb.index.get(1) != &tb.first):
			t.Fatalf("the second session did not make a four-slot index filing the inline entry")
		}
	}
	if tb.get(1) != &tb.first {
		t.Fatalf("the first session is not in the inline entry")
	}
	for s := SessionID(2); s <= 5; s++ {
		if tb.get(s) == &tb.first {
			t.Fatalf("session %d shares the inline entry", s)
		}
	}
	if int(tb.index.n) != 5 || len(tb.index.slots) != 2*minEntrySlots {
		t.Fatalf("five sessions in an index of %d entries, %d slots", int(tb.index.n), len(tb.index.slots))
	}
	if b := tb.get(1).bucket; b != &tb.buckets.first || len(b.members) != 5 {
		t.Fatalf("five equal rates are not five members of the table's first bucket")
	}
	// The inline holder leaves first; four heap entries stay.
	srcs[0].Leave()
	p.run(10_000)
	p.checkAll()
	if tb.firstLive || tb.sessions() != 4 {
		t.Fatalf("inline entry not released: live %t, %d sessions", tb.firstLive, tb.sessions())
	}
	// Down to one (a heap entry), then a newcomer: it gets the inline entry.
	for _, src := range srcs[1:4] {
		src.Leave()
	}
	p.run(10_000)
	p.checkAll()
	p.addSession(6, 1).Join(rate.Mbps(30))
	p.run(10_000)
	p.checkAll()
	if tb.get(6) != &tb.first || tb.get(5) == &tb.first || tb.sessions() != 2 {
		t.Fatalf("the newcomer did not take the free inline entry")
	}
	if tb.index == nil || len(tb.index.slots) != 2*minEntrySlots {
		t.Fatalf("the index shrank or went")
	}
	if got, want := p.rates[5], rate.Mbps(70); !got.Equal(want) {
		t.Fatalf("session 5 rate %v, want %v", got, want)
	}
}

// TestPropSingleSessionLinkChurn is the dynamics property test aimed at the
// inline lifetimes: chains of links that carry one session at a time see
// join → leave → re-join (fresh ID, as the transports do it) with the old
// lifetime's packets still in flight, and one shared link swings between one
// session and one per chain; after every quiescence every table is
// consistent and every rate is the oracle's.
func TestPropSingleSessionLinkChurn(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for iter := 0; iter < 120; iter++ {
		p := newPump(t)
		const shared = LinkRef(100)
		p.addLink(shared, rate.FromInt64(int64(20+r.Intn(80))*1_000_000))
		nChains := 1 + r.Intn(5)
		for c := 0; c < nChains; c++ {
			for h := 0; h < 3; h++ {
				p.addLink(LinkRef(10*c+h+1), rate.FromInt64(int64(10+r.Intn(90))*1_000_000))
			}
		}
		nextID := SessionID(1)
		cur := make([]*SourceNode, nChains) // the live session of each chain
		demand := func() rate.Rate {
			if r.Intn(3) == 0 {
				return rate.FromInt64(int64(1+r.Intn(60)) * 1_000_000)
			}
			return rate.Inf
		}
		join := func(c int, viaShared bool) {
			path := []LinkRef{LinkRef(10*c + 1), LinkRef(10*c + 2), LinkRef(10*c + 3)}
			if viaShared {
				path = append(path, shared)
			}
			cur[c] = p.addSession(nextID, path...)
			cur[c].Join(demand())
			nextID++
		}
		for round := 0; round < 6; round++ {
			// Even rounds: every chain's session also crosses the shared link
			// (it grows to nChains sessions); odd rounds: only chain 0's does.
			for c := 0; c < nChains; c++ {
				if cur[c] != nil {
					cur[c].Leave()
					p.deliverSome(r.Intn(8)) // the successor overtakes part of the Leave
				}
				join(c, round%2 == 0 || c == 0)
				p.deliverSome(r.Intn(12))
			}
			if r.Intn(2) == 0 {
				cur[r.Intn(nChains)].Change(demand())
			}
			// Under the FIFO schedule a Leave reaches every link before the
			// successor's Join, so a chain link never sees two sessions and
			// never gets an index. Under a random channel-FIFO schedule the
			// Join can overtake: the link makes its index, the survivor may
			// be the heap entry, and the inline one is free for the next
			// round's join.
			fifo := iter%2 == 0
			if fifo {
				p.run(1_000_000)
			} else {
				p.runRandom(r, 1_000_000)
			}
			p.checkAll()
			for c := 0; c < nChains; c++ {
				for h := 1; h <= 3; h++ {
					tb := &p.link(LinkRef(10*c + h)).tbl
					if tb.sessions() != 1 || (fifo && (!tb.firstLive || tb.index != nil)) {
						t.Fatalf("iter %d round %d: chain link %d holds %d sessions, inline live %t, index %t",
							iter, round, 10*c+h, tb.sessions(), tb.firstLive, tb.index != nil)
					}
				}
			}
		}
	}
}
