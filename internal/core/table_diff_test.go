package core

import (
	"math/rand"
	"slices"
	"testing"

	"bneck/internal/rate"
)

// TestTableMatchesReference runs random operation programs against the table
// and against the map-based table it replaced (table_ref_test.go) and
// requires, after every step, the same B_e, the same predicates and the same
// session-ID *sequence* from every snapshot helper — the sequence is the
// emission order of Figure 2's handlers, so equal sequences are what keeps
// the simulation bit-identical.
//
// Programs 320 and up shape the population around the table's inline first
// entry, slot group and buckets (the first 320 are the programs the test
// always ran): even ones keep a single session on the link, so every addNew
// after a remove reuses the inline entry while the bucket it just left sits
// on a free list; odd ones breathe 1 → 5 → 1 sessions, across the spill of
// the slot group, the member lists and the bucket arrays and back.
func TestTableMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for prog := 0; prog < 400; prog++ {
		// popCap bounds the population at a step (0: unbounded).
		popCap := func(step int) int {
			switch {
			case prog < 320:
				return 0
			case prog%2 == 0 || (step/40)%2 == 0:
				return 1
			}
			return 5
		}
		capacity := rate.FromInt64(int64(10+r.Intn(1000)) * 1_000_000)
		opt := newTable(capacity)
		ref := newRefTable(capacity)
		var known []SessionID

		// ID shapes the index must cope with: sequential, strided by a power
		// of two (every key lands in few home slots under a masking hash),
		// and arbitrary including zero and negatives.
		nextID := SessionID(r.Intn(3) - 1)
		stride := SessionID(1) << uint(r.Intn(3)*8)
		newID := func() SessionID {
			if prog%3 == 2 {
				for {
					s := SessionID(r.Int63n(1<<40) - 1<<39)
					if ref.get(s) == nil {
						return s
					}
				}
			}
			nextID += stride
			return nextID
		}
		// Few distinct rates, so buckets hold several members and emptied
		// buckets are reused.
		randRate := func() rate.Rate {
			return rate.FromFrac(int64(1+r.Intn(12))*1_000_000, int64(1+r.Intn(3)))
		}
		pick := func() (SessionID, *tableEntry, *refTableEntry) {
			if len(known) == 0 {
				return 0, nil, nil
			}
			s := known[r.Intn(len(known))]
			return s, opt.get(s), ref.get(s)
		}

		steps := 100 + r.Intn(300)
		spilled := false
		for step := 0; step < steps; step++ {
			op := r.Intn(12)
			if c := popCap(step); c > 0 {
				switch {
				case len(known) > c || (len(known) == c && op <= 2):
					op = 3 // full: a leave makes room for the next join
				case len(known) == 0:
					op = 0
				}
			}
			switch op {
			case 0, 1, 2: // addNew
				s := newID()
				hop := r.Intn(30)
				wasEmpty := opt.sessions() == 0
				got := opt.addNew(s, hop)
				if got.id != s || int(got.hop) != hop {
					t.Fatalf("prog %d step %d: addNew(%d, %d) returned id %d hop %d", prog, step, s, hop, got.id, got.hop)
				}
				if wasEmpty && got != &opt.first {
					t.Fatalf("prog %d step %d: first session of an empty table not filed inline", prog, step)
				}
				ref.addNew(s, hop)
				known = append(known, s)
			case 3: // remove
				if s, ent, _ := pick(); ent != nil {
					opt.remove(s)
					ref.remove(s)
					i := slices.Index(known, s)
					known = slices.Delete(known, i, i+1)
				}
			case 4, 5, 6: // setIdle (R_e only), often at a rate already present
				if s, ent, rent := pick(); ent != nil && ent.inRe {
					lam := randRate()
					opt.setIdle(ent, lam)
					ref.setIdle(s, rent, lam)
				}
			case 7: // setState
				if s, ent, rent := pick(); ent != nil {
					mu := WaitingProbe
					if r.Intn(2) == 0 {
						mu = WaitingResponse
					}
					opt.setState(ent, mu)
					ref.setState(s, rent, mu)
				}
			case 8, 9: // moveReToFe, as the protocol does it: idle and below B_e
				if s, ent, rent := pick(); ent != nil && ent.inRe && ent.mu == Idle && ent.lambda.Less(opt.be()) {
					opt.moveReToFe(ent)
					ref.moveReToFe(s, rent)
				}
			case 10: // moveFeToRe
				if s, ent, rent := pick(); ent != nil && !ent.inRe {
					opt.moveFeToRe(ent)
					ref.moveFeToRe(s, rent)
				}
			case 11: // setCapacity, never below what F_e already holds
				c := opt.sumFe.Add(rate.FromInt64(int64(1+r.Intn(1000)) * 1_000_000))
				opt.setCapacity(c)
				ref.setCapacity(c)
			}

			if err := opt.checkInvariants(); err != nil {
				t.Fatalf("prog %d step %d: invariants: %v", prog, step, err)
			}
			if err := ref.checkInvariants(); err != nil {
				t.Fatalf("prog %d step %d: reference invariants: %v", prog, step, err)
			}
			if opt.sessions() != ref.sessions() {
				t.Fatalf("prog %d step %d: sessions %d vs %d", prog, step, opt.sessions(), ref.sessions())
			}
			for _, s := range known {
				ent, rent := opt.get(s), ref.get(s)
				if ent == nil || ent.id != s || ent.inRe != rent.inRe || ent.mu != rent.mu ||
					ent.hasLambda != rent.hasLambda || !ent.lambda.Equal(rent.lambda) || int(ent.hop) != rent.hop {
					t.Fatalf("prog %d step %d: entry %d is %+v, reference %+v", prog, step, s, ent, rent)
				}
			}
			be := opt.be()
			if be.Key() != ref.be().Key() {
				t.Fatalf("prog %d step %d: be %v vs %v", prog, step, be, ref.be())
			}
			if opt.allReIdleAtBe() != ref.allReIdleAtBe() {
				t.Fatalf("prog %d step %d: allReIdleAtBe %t vs %t", prog, step, opt.allReIdleAtBe(), ref.allReIdleAtBe())
			}
			om, ook := opt.feMax()
			rm, rok := ref.feMax()
			if ook != rok || om.Key() != rm.Key() {
				t.Fatalf("prog %d step %d: feMax (%v,%t) vs (%v,%t)", prog, step, om, ook, rm, rok)
			}
			same := func(what string, got []*tableEntry, want []SessionID) {
				t.Helper()
				if !slices.Equal(ids(got), want) {
					t.Fatalf("prog %d step %d: %s = %v, reference %v", prog, step, what, ids(got), want)
				}
			}
			spilled = spilled || len(opt.entries.slots) > minEntrySlots
			if prog >= 320 && prog%2 == 0 {
				// One session at a time: nothing may have spilled.
				if len(opt.entries.slots) > minEntrySlots || cap(opt.idleRates.buckets) > 1 || cap(opt.feRates.buckets) > 1 ||
					cap(opt.buckets.free) > 1 {
					t.Fatalf("prog %d step %d: a single-session table spilled to the heap", prog, step)
				}
			}
			same("appendIdleAll", opt.appendIdleAll(nil), ref.appendIdleAll(nil))
			probes := []rate.Rate{randRate(), randRate()}
			if !be.IsInf() {
				probes = append(probes, be)
			}
			if ook {
				probes = append(probes, om)
			}
			for _, p := range probes {
				same("appendIdleAt", opt.appendIdleAt(nil, p), ref.appendIdleAt(nil, p))
				same("appendIdleAbove", opt.appendIdleAbove(nil, p), ref.appendIdleAbove(nil, p))
				same("appendFeSessionsAt", opt.appendFeSessionsAt(nil, p), ref.appendFeSessionsAt(nil, p))
			}
		}
		if prog >= 320 && prog%2 == 1 && !spilled {
			t.Fatalf("prog %d: a breathing program never crossed the inline/heap boundary", prog)
		}
	}
}

// TestSnapshotAppendsAfterPrefix checks the scratch-slice contract: a
// snapshot helper appends after what dst already holds and sorts only its
// own part.
func TestSnapshotAppendsAfterPrefix(t *testing.T) {
	tb := newTable(rate.Mbps(100))
	for _, s := range []SessionID{9, 3, 7} {
		tb.setIdle(tb.addNew(s, 1), rate.Mbps(5))
	}
	prefix := []*tableEntry{{id: 99}, {id: 1}}
	got := ids(tb.appendIdleAt(prefix, rate.Mbps(5)))
	if want := []SessionID{99, 1, 3, 7, 9}; !slices.Equal(got, want) {
		t.Fatalf("appendIdleAt after a prefix = %v, want %v", got, want)
	}
}

// entryMapOps interprets data as a put/get/del program over a small key
// universe built from the ID shapes that stress an open-addressed table
// (zero, negatives, sequential runs, 2^k strides) and checks the index
// against a Go map after every operation.
func entryMapOps(t *testing.T, data []byte) {
	var m entryMap
	ref := make(map[SessionID]*tableEntry)
	key := func(b byte) SessionID {
		k := SessionID(b & 0x3f)
		switch b >> 6 {
		case 0:
			return k // sequential from zero
		case 1:
			return -k // negatives
		case 2:
			return k << 16 // 2^16-strided
		default:
			return k << 58 // strided in the bits a masking hash would drop
		}
	}
	for i := 0; i+1 < len(data); i += 2 {
		id := key(data[i+1])
		switch data[i] % 4 {
		case 0, 1: // put (absent keys only, as the table guarantees)
			if ref[id] == nil {
				ref[id] = &tableEntry{id: id}
				m.put(ref[id])
			}
		case 2: // del
			if got := m.del(id); got != ref[id] {
				t.Fatalf("op %d: del(%d) returned %p, want %p", i/2, id, got, ref[id])
			}
			delete(ref, id)
		case 3: // get of a possibly absent key
			if m.get(id) != ref[id] {
				t.Fatalf("op %d: get(%d) = %p, want %p", i/2, id, m.get(id), ref[id])
			}
		}
		if m.len() != len(ref) {
			t.Fatalf("op %d: len %d, want %d", i/2, m.len(), len(ref))
		}
		if n := len(m.slots); n != 0 && (n < minEntrySlots || n&(n-1) != 0 || m.len()*4 > n*3) {
			t.Fatalf("op %d: %d entries in %d slots", i/2, m.len(), n)
		}
		for id, ent := range ref {
			if m.get(id) != ent {
				t.Fatalf("op %d: key %d lost", i/2, id)
			}
		}
		live := 0
		for _, s := range m.slots {
			if s.ent != nil {
				live++
				if ref[s.id] != s.ent {
					t.Fatalf("op %d: slot holds stale key %d", i/2, s.id)
				}
			}
		}
		if live != len(ref) {
			t.Fatalf("op %d: %d live slots, want %d", i/2, live, len(ref))
		}
	}
}

// entryMapSeeds is FuzzEntryMap's seed corpus (run as plain tests by every
// `go test`).
func entryMapSeeds() [][]byte {
	var seeds [][]byte
	// Fill sequentially through several growths, then delete everything in
	// insertion order and in reverse.
	var fill, drain, rev []byte
	for k := byte(0); k < 64; k++ {
		fill = append(fill, 0, k)
		drain = append(drain, 2, k)
		rev = append(rev, 2, 63-k)
	}
	seeds = append(seeds, slices.Concat(fill, drain), slices.Concat(fill, rev))
	// Strided keys, all four shapes mixed, with gets of absent keys between.
	var mixed []byte
	for k := 0; k < 256; k += 3 {
		mixed = append(mixed, 0, byte(k), 3, byte(k+1))
	}
	for k := 0; k < 256; k += 6 {
		mixed = append(mixed, 2, byte(k))
	}
	seeds = append(seeds, mixed)
	// Deletion runs that wrap the array end: with the table full to ¾, remove
	// keys from the middle of every probe run, whichever slots they wrapped
	// into.
	var wrap []byte
	for k := byte(0); k < 48; k++ {
		wrap = append(wrap, 0, 0xc0|k)
	}
	for k := byte(0); k < 48; k += 2 {
		wrap = append(wrap, 2, 0xc0|k, 3, 0xc0|(k+1))
	}
	for k := byte(0); k < 48; k++ {
		wrap = append(wrap, 0, 0xc0|k, 2, 0xc0|(47-k))
	}
	seeds = append(seeds, wrap)
	// Pseudo-random programs.
	r := rand.New(rand.NewSource(59))
	for i := 0; i < 40; i++ {
		p := make([]byte, 2*(50+r.Intn(400)))
		r.Read(p)
		seeds = append(seeds, p)
	}
	return seeds
}

func FuzzEntryMap(f *testing.F) {
	for _, seed := range entryMapSeeds() {
		f.Add(seed)
	}
	f.Fuzz(entryMapOps)
}

// TestEntryMapNeverShrinks pins the growth policy the doc comment promises:
// four slots at first, doubling at ¾ load, and no shrinking on delete.
func TestEntryMapNeverShrinks(t *testing.T) {
	var m entryMap
	if m.get(1) != nil || m.del(1) != nil || len(m.slots) != 0 {
		t.Fatalf("zero entryMap is not an empty index")
	}
	m.put(&tableEntry{id: 1})
	if len(m.slots) != minEntrySlots {
		t.Fatalf("first put allocated %d slots, want %d", len(m.slots), minEntrySlots)
	}
	for s := SessionID(2); s <= 100; s++ {
		m.put(&tableEntry{id: s})
	}
	size := len(m.slots)
	if size != 256 {
		t.Fatalf("100 entries in %d slots, want 256", size)
	}
	for s := SessionID(1); s <= 100; s++ {
		m.del(s)
	}
	if m.len() != 0 || len(m.slots) != size {
		t.Fatalf("after deleting everything: len %d, %d slots (want 0, %d)", m.len(), len(m.slots), size)
	}
}

// TestEntryMapDeleteWrapsArrayEnd builds a probe run that starts in the last
// slot and continues at slot 0, deletes its head and checks the backward
// shift carried the followers across the array end — and left alone the key
// that already sat in its home slot.
func TestEntryMapDeleteWrapsArrayEnd(t *testing.T) {
	m := entryMap{slots: make([]entrySlot, 8), shift: 61}
	var last, first []SessionID // keys whose home is slot 7, slot 0
	for id := SessionID(0); len(last) < 3 || len(first) < 2; id++ {
		switch h := m.home(id); {
		case h == 7 && len(last) < 3:
			last = append(last, id)
		case h == 0 && len(first) < 2:
			first = append(first, id)
		}
	}
	keys := []SessionID{last[0], last[1], last[2], first[0]} // slots 7, 0, 1, 2
	for _, id := range keys {
		m.put(&tableEntry{id: id})
	}
	at := func(slot int) SessionID {
		if m.slots[slot].ent == nil {
			t.Fatalf("slot %d is free; slots %v", slot, m.slots)
		}
		return m.slots[slot].id
	}
	if at(7) != last[0] || at(0) != last[1] || at(1) != last[2] || at(2) != first[0] {
		t.Fatalf("run not laid out across the array end: %v", m.slots)
	}
	m.del(last[0])
	if at(7) != last[1] || at(0) != last[2] || at(1) != first[0] || m.slots[2].ent != nil {
		t.Fatalf("after deleting the head of the run: %v", m.slots)
	}
	m.del(last[1])
	// last[2] moves back into slot 7; first[0] is now home in slot 0.
	if at(7) != last[2] || at(0) != first[0] || m.slots[1].ent != nil {
		t.Fatalf("after the second delete: %v", m.slots)
	}
	m.put(&tableEntry{id: first[1]}) // slot 1
	m.del(last[2])
	// The hole in slot 7 is not on the probe path of keys homed at slot 0.
	if m.slots[7].ent != nil || at(0) != first[0] || at(1) != first[1] {
		t.Fatalf("delete moved keys out of their home run: %v", m.slots)
	}
	for _, id := range first {
		if m.get(id) == nil {
			t.Fatalf("key %d lost", id)
		}
	}
}
