package core

import (
	"math/rand"
	"testing"
	"unsafe"

	"bneck/internal/rate"
)

// The tests in this file pin the lifetimes of a link's inline storage — the
// table's first entry and the task's one-slot snapshot buffer — and of the
// shared index (entry index, rate sets, Σλ, B_e), which a link gets with its
// second session. The differential programs in table_diff_test.go check
// that what they hold is right; these check where it lives and what it
// costs.

// TestSingleSessionLinkAllocatesNothing drives one link through the life of
// a chain link — a session joins, settles, is restricted elsewhere (F_e),
// re-probes, leaves, and a successor joins — and requires every cycle after
// the first to reuse the inline entry without touching the heap, while the
// departed session's pointer is still in the snapshot slot, and the link
// never to make a shared index.
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
		unshared := func(phase string) {
			t.Helper()
			if tb.x != nil {
				t.Fatalf("session %d %s: a single-session link made a shared index", id, phase)
			}
			if err := rl.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
		unshared("joined")
		// Accepted at B_e: idle in R_e, the link is its bottleneck.
		rl.Receive(Packet{Type: PktResponse, Session: id, Resp: RespResponse, Rate: rate.Mbps(100), Bneck: 1}, 1)
		if ent.mu != Idle || !tb.allReIdleAtBe() {
			t.Fatalf("session %d not idle at B_e = C_e: %+v", id, ent)
		}
		unshared("idle")
		// A finite demand restricts it elsewhere: probe, settle at 7 Mbps,
		// SetBottleneck moves it to F_e.
		rl.Receive(Packet{Type: PktProbe, Session: id, Rate: rate.Mbps(7), Bneck: SourceRef}, 1)
		rl.Receive(Packet{Type: PktResponse, Session: id, Resp: RespResponse, Rate: rate.Mbps(7), Bneck: SourceRef}, 1)
		rl.Receive(Packet{Type: PktSetBottleneck, Session: id}, 1)
		if ent.inRe || ent.bucket != nil {
			t.Fatalf("session %d not in F_e, filed nowhere: %+v", id, ent)
		}
		unshared("in F_e")
		rl.Receive(Packet{Type: PktLeave, Session: id}, 1)
		if tb.sessions() != 0 || tb.firstLive {
			t.Fatalf("leave of session %d left state behind", id)
		}
		unshared("left")
	}
	cycle() // claims the inline storage
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Fatalf("a join → settle → F_e → leave cycle on a single-session link allocates %v objects, want 0", n)
	}
	if sink.n == 0 {
		t.Fatalf("the link forwarded nothing")
	}
}

// TestSharedIndexFootprint holds a shared link's side record to the 192-byte
// allocation class, whose objects start on a cache line, with what every
// packet at a shared link reads — the entry index and B_e — in its first.
func TestSharedIndexFootprint(t *testing.T) {
	var x sharedIndex
	if n := unsafe.Sizeof(x); n > 192 {
		t.Errorf("sharedIndex is %d bytes, want at most 192", n)
	}
	if end := unsafe.Offsetof(x.beValid); end >= 64 {
		t.Errorf("B_e's flag at byte %d, past the first cache line", end)
	}
}

// countEmitter counts emissions and drops them (source_test.go's recorder
// appends, which the allocation count above would see).
type countEmitter struct{ n int }

func (c *countEmitter) Emit(SessionID, int, Direction, Packet) { c.n++ }

// TestInlineEntryAcrossGrowth takes one link 1 → 5 → 1 sessions and back up:
// the first session holds the inline entry, the others live on the heap,
// the second makes the index (four slots, filing the inline entry too) and
// makes the rate sets; when the first leaves while others stay, the
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
		case s == 1 && tb.x != nil:
			t.Fatalf("one session made an index")
		case s == 2 && (tb.x == nil || len(tb.x.index.slots) != minEntrySlots || tb.x.index.get(1) != &tb.first):
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
	if int(tb.x.index.n) != 5 || len(tb.x.index.slots) != 2*minEntrySlots {
		t.Fatalf("five sessions in an index of %d entries, %d slots", int(tb.x.index.n), len(tb.x.index.slots))
	}
	if b := tb.get(1).bucket; b == nil || len(b.members) != 5 {
		t.Fatalf("five equal rates are not five members of one bucket")
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
	if tb.x == nil || len(tb.x.index.slots) != 2*minEntrySlots {
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
					if tb.sessions() != 1 || (fifo && (!tb.firstLive || tb.x != nil)) {
						t.Fatalf("iter %d round %d: chain link %d holds %d sessions, inline live %t, index %t",
							iter, round, 10*c+h, tb.sessions(), tb.firstLive, tb.x != nil)
					}
				}
			}
		}
	}
}
