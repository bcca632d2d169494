package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"bneck/internal/rate"
)

// modelTable is Figure 2's per-link state read straight off its
// definitions: a map of entries, with B_e, the predicates and the snapshots
// computed by scanning it and snapshots sorted by session ID. Only the
// entries' Figure 2 fields (set, μ, λ) and hop are used.
type modelTable struct {
	capacity rate.Rate
	ents     map[SessionID]*tableEntry
}

// be is (C_e − Σ_{s∈F_e} λ_s)/|R_e|, +∞ for an empty R_e.
func (m *modelTable) be() rate.Rate {
	re, sum := 0, rate.Zero
	for _, e := range m.ents {
		if e.inRe {
			re++
		} else {
			sum = sum.Add(e.lambda)
		}
	}
	if re == 0 {
		return rate.Inf
	}
	return m.capacity.Sub(sum).DivInt(re)
}

// allReIdleAtBe is ∀r ∈ R_e: λ_r = B_e ∧ μ_r = IDLE, false for an empty R_e.
func (m *modelTable) allReIdleAtBe() bool {
	be, re := m.be(), 0
	for _, e := range m.ents {
		if e.inRe {
			re++
			if e.mu != Idle || !e.lambda.Equal(be) {
				return false
			}
		}
	}
	return re > 0
}

func (m *modelTable) feMax() (rate.Rate, bool) {
	max, ok := rate.Zero, false
	for _, e := range m.ents {
		if !e.inRe && (!ok || e.lambda.Greater(max)) {
			max, ok = e.lambda, true
		}
	}
	return max, ok
}

// snapshot returns the IDs of the entries keep accepts, sorted.
func (m *modelTable) snapshot(keep func(e *tableEntry) bool) []SessionID {
	var out []SessionID
	for s, e := range m.ents {
		if keep(e) {
			out = append(out, s)
		}
	}
	slices.SortFunc(out, func(a, b SessionID) int { return cmp.Compare(a, b) })
	return out
}

func idleIn(e *tableEntry) bool { return e.inRe && e.mu == Idle }

// tableRun drives a table and the model through one program of table
// operations, every choice drawn from draw (a value in [0, n)), and compares
// every observable after every step. The session IDs come in one of three
// shapes the index must cope with: sequential, strided by a power of two
// (every key lands in few home slots under a masking hash), or scrambled
// over the whole range, zero and negatives included.
type tableRun struct {
	t       *testing.T
	name    string
	draw    func(n int) int
	tb      *table
	m       modelTable
	known   []SessionID
	n       int64 // IDs handed out
	shape   int
	wide    bool // rates drawn from 700 fractions rather than 36
	spilled bool // the table has had an index
}

func newTableRun(t *testing.T, name string, draw func(int) int) *tableRun {
	c := rate.FromInt64(int64(10+draw(1000)) * 1_000_000)
	return &tableRun{t: t, name: name, draw: draw, tb: newTable(c),
		m: modelTable{capacity: c, ents: map[SessionID]*tableEntry{}}, shape: draw(3)}
}

func (p *tableRun) newID() SessionID {
	p.n++
	switch p.shape {
	case 0:
		return SessionID(p.n - 1)
	case 1:
		return SessionID(p.n << 16)
	}
	return SessionID(uint64(p.n) * 0xD6E8FEB86659FD93) // odd: a bijection
}

// randRate draws from few distinct rates, so buckets hold several members
// and emptied buckets are reused; wide runs draw from many, so most idle
// sessions have a bucket of their own.
func (p *tableRun) randRate() rate.Rate {
	if p.wide {
		return rate.FromFrac(int64(1+p.draw(100))*1_000_000, int64(1+p.draw(7)))
	}
	return rate.FromFrac(int64(1+p.draw(12))*1_000_000, int64(1+p.draw(3)))
}

func (p *tableRun) pick() (SessionID, *tableEntry, *tableEntry) {
	if len(p.known) == 0 {
		return 0, nil, nil
	}
	s := p.known[p.draw(len(p.known))]
	return s, p.tb.get(s), p.m.ents[s]
}

// The operations, each applied to both sides.

func (p *tableRun) addNew() {
	s, hop := p.newID(), p.draw(30)
	wasEmpty := p.tb.sessions() == 0
	got := p.tb.addNew(s, hop)
	if got.id != s || int(got.hop) != hop {
		p.fail("addNew(%d, %d) returned id %d hop %d", s, hop, got.id, got.hop)
	}
	if wasEmpty && got != &p.tb.first {
		p.fail("first session of an empty table not filed inline")
	}
	p.m.ents[s] = &tableEntry{id: s, inRe: true, mu: WaitingResponse, hop: int32(hop)}
	p.known = append(p.known, s)
}

func (p *tableRun) remove() {
	if s, ent, _ := p.pick(); ent != nil {
		p.tb.remove(s)
		delete(p.m.ents, s)
		i := slices.Index(p.known, s)
		p.known = slices.Delete(p.known, i, i+1)
	}
}

func (p *tableRun) setIdle(lam rate.Rate) {
	if _, ent, me := p.pick(); ent != nil && ent.inRe {
		p.tb.setIdle(ent, lam)
		me.mu, me.lambda, me.hasLambda = Idle, lam, true
	}
}

func (p *tableRun) setState(mu State) {
	if _, ent, me := p.pick(); ent != nil {
		p.tb.setState(ent, mu)
		me.mu = mu
	}
}

// moveReToFe as the protocol does it: idle and below B_e.
func (p *tableRun) moveReToFe() {
	if _, ent, me := p.pick(); ent != nil && ent.inRe && ent.mu == Idle && ent.lambda.Less(p.tb.be()) {
		p.tb.moveReToFe(ent)
		me.inRe = false
	}
}

func (p *tableRun) moveFeToRe() {
	if _, ent, me := p.pick(); ent != nil && !ent.inRe {
		p.tb.moveFeToRe(ent)
		me.inRe = true
	}
}

// setCapacity never goes below what F_e already holds.
func (p *tableRun) setCapacity() {
	sum := rate.Zero
	for _, e := range p.m.ents {
		if !e.inRe {
			sum = sum.Add(e.lambda)
		}
	}
	c := sum.Add(rate.FromInt64(int64(1+p.draw(1000)) * 1_000_000))
	p.tb.setCapacity(c)
	p.m.capacity = c
}

// random applies one random operation; cap bounds the population (0:
// unbounded): a full table leaves before it joins again.
func (p *tableRun) random(cap int) {
	op := p.draw(12)
	if cap > 0 {
		switch {
		case len(p.known) > cap || (len(p.known) == cap && op <= 2):
			op = 3
		case len(p.known) == 0:
			op = 0
		}
	}
	switch op {
	case 0, 1, 2:
		p.addNew()
	case 3:
		p.remove()
	case 4, 5, 6: // often at a rate already present
		p.setIdle(p.randRate())
	case 7:
		p.setState([]State{WaitingProbe, WaitingResponse}[p.draw(2)])
	case 8, 9:
		p.moveReToFe()
	case 10:
		p.moveFeToRe()
	case 11:
		p.setCapacity()
	}
	p.check()
}

func (p *tableRun) fail(format string, args ...any) {
	p.t.Helper()
	p.t.Fatalf("%s: "+format, append([]any{p.name}, args...)...)
}

// check compares the table with the model: invariants, entries, B_e, the
// predicates and all four snapshots at B_e, at the largest F_e rate and at
// two drawn rates — as ID sequences, because the sequence is the emission
// order of Figure 2's handlers, so equal sequences are what keeps the
// simulation bit-identical. A table has an index exactly from its second
// session on.
func (p *tableRun) check() {
	p.t.Helper()
	tb, m := p.tb, &p.m
	if err := tb.checkInvariants(); err != nil {
		p.fail("invariants: %v", err)
	}
	if tb.sessions() != len(m.ents) {
		p.fail("sessions %d, model %d", tb.sessions(), len(m.ents))
	}
	for s, me := range m.ents {
		ent := tb.get(s)
		if ent == nil || ent.id != s || ent.inRe != me.inRe || ent.mu != me.mu ||
			ent.hasLambda != me.hasLambda || !ent.lambda.Equal(me.lambda) || ent.hop != me.hop {
			p.fail("entry %d is %+v, model %+v", s, ent, me)
		}
	}
	if tb.x == nil && len(m.ents) > 1 {
		p.fail("%d sessions without an index", len(m.ents))
	}
	if p.spilled && tb.x == nil {
		p.fail("the index went")
	}
	p.spilled = p.spilled || tb.x != nil
	be := tb.be()
	if be.Key() != m.be().Key() {
		p.fail("be %v, model %v", be, m.be())
	}
	if tb.allReIdleAtBe() != m.allReIdleAtBe() {
		p.fail("allReIdleAtBe %t, model %t", tb.allReIdleAtBe(), m.allReIdleAtBe())
	}
	fm, fok := tb.feMax()
	mm, mok := m.feMax()
	if fok != mok || fok && fm.Key() != mm.Key() {
		p.fail("feMax (%v,%t), model (%v,%t)", fm, fok, mm, mok)
	}
	same := func(what string, got []*tableEntry, want []SessionID) {
		p.t.Helper()
		if !slices.Equal(ids(got), want) {
			p.fail("%s = %v, model %v", what, ids(got), want)
		}
	}
	same("appendIdleAll", tb.appendIdleAll(nil), m.snapshot(idleIn))
	probes := []rate.Rate{p.randRate(), p.randRate()}
	if !be.IsInf() {
		probes = append(probes, be)
	}
	if fok {
		probes = append(probes, fm)
	}
	for _, r := range probes {
		same("appendIdleAt", tb.appendIdleAt(nil, r), m.snapshot(func(e *tableEntry) bool {
			return idleIn(e) && e.lambda.Equal(r)
		}))
		same("appendIdleAbove", tb.appendIdleAbove(nil, r), m.snapshot(func(e *tableEntry) bool {
			return idleIn(e) && e.lambda.Greater(r)
		}))
		same("appendFeSessionsAt", tb.appendFeSessionsAt(nil, r), m.snapshot(func(e *tableEntry) bool {
			return !e.inRe && e.lambda.Equal(r)
		}))
	}
}

// crossings are the three states the one session of a table can be in when
// a second arrives and the index is made: idle in R_e (filed in idleRates),
// waiting in R_e (filed nowhere), in F_e (filed in feRates, seeding Σλ).
var crossings = []string{"idle in R_e", "waiting in R_e", "in F_e"}

// cross brings the table to one session in the given crossing state, checks
// it has no index, and adds a second session.
func (p *tableRun) cross(k int) {
	for len(p.known) > 0 {
		p.remove()
	}
	p.addNew()
	// Below B_e = C_e, so that the session may move to F_e.
	p.setIdle(rate.Min(p.randRate(), p.tb.capacity.DivInt(2)))
	switch k {
	case 1:
		p.setState(WaitingProbe)
	case 2:
		p.moveReToFe()
	}
	p.check()
	if f := &p.tb.first; p.tb.x != nil || (f.mu == Idle) == (k == 1) || f.inRe == (k == 2) {
		p.fail("not one session %s without an index: %+v", crossings[k], *f)
	}
	p.addNew()
	p.check()
}

// TestTableMatchesReference runs random operation programs against the table
// and against the model and requires, after every step, the same entries,
// B_e, predicates and snapshot sequences.
//
// Programs 320 to 399 shape the population around the table's inline first
// entry and its index (the first 320 are unbounded): even ones keep a single
// session on the link, so every addNew after a remove reuses the inline
// entry and no index is ever made; odd ones breathe 1 → 5 → 1 sessions,
// across the making of the index and back. Programs 400 and up cross the
// boundary from each of the three states the first session can be in, then
// breathe.
func TestTableMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for prog := 0; prog < 430; prog++ {
		p := newTableRun(t, "prog "+itoa(prog), r.Intn)
		steps := 100 + r.Intn(300)
		if prog >= 400 {
			k := prog % len(crossings)
			p.name += " (" + crossings[k] + ")"
			p.cross(k)
		}
		for step := 0; step < steps; step++ {
			switch {
			case prog < 320:
				p.random(0)
			case prog < 400 && (prog%2 == 0 || (step/40)%2 == 0):
				p.random(1)
				if prog%2 == 0 && p.tb.x != nil {
					p.fail("step %d: a single-session table made an index", step)
				}
			default:
				p.random(5)
			}
		}
		if prog >= 320 && prog%2 == 1 && !p.spilled {
			t.Fatalf("prog %d: a breathing program never made an index", prog)
		}
	}
}

// TestTableMatchesNaive runs long unbounded programs against the model with
// rates drawn wide: nearly every idle session sits alone in its bucket, so
// the rate sets grow with the population and buckets are made and emptied
// at almost every setIdle, where TestTableMatchesReference's few rates keep
// buckets shared and reused.
func TestTableMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for prog := 0; prog < 100; prog++ {
		p := newTableRun(t, "wide prog "+itoa(prog), r.Intn)
		p.wide = true
		for step := 0; step < 400; step++ {
			p.random(0)
		}
	}
}

// FuzzTable is TestTableMatchesReference's interpreter driven by fuzz
// bytes: each byte is one choice, and the program ends with the input. The
// first byte picks the shape: a population bound of 1, 2 or 5 sessions (or
// none), or one of the three crossings first.
func FuzzTable(f *testing.F) {
	r := rand.New(rand.NewSource(61))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 64+r.Intn(1024))
		r.Read(seed)
		seed[0] = byte(i)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		shape := int(data[0]) % 7
		data = data[1:]
		draw := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % n
		}
		p := newTableRun(t, "fuzz", draw)
		if shape >= 4 {
			p.cross(shape - 4)
			shape = 3
		}
		for len(data) > 0 {
			p.random([]int{0, 1, 2, 5}[shape])
		}
	})
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
		if int(m.n) != len(ref) {
			t.Fatalf("op %d: len %d, want %d", i/2, int(m.n), len(ref))
		}
		if n := len(m.slots); n != 0 && (n < minEntrySlots || n&(n-1) != 0 || int(m.n)*4 > n*3) {
			t.Fatalf("op %d: %d entries in %d slots", i/2, int(m.n), n)
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

// TestEntryMapNeverShrinks pins the growth policy the doc comments promise:
// a table has no index while it holds one session; the second session makes
// one of four heap slots filing both; it doubles at ¾ load; and neither
// deletes nor the table emptying shrink or drop it.
func TestEntryMapNeverShrinks(t *testing.T) {
	var m entryMap
	if m.get(1) != nil || m.del(1) != nil || len(m.slots) != 0 {
		t.Fatalf("zero entryMap is not an empty index")
	}
	tb := newTable(rate.Mbps(100))
	tb.addNew(1, 0)
	if tb.x != nil {
		t.Fatalf("one session made an index")
	}
	if n := testing.AllocsPerRun(10, func() { tb.remove(1); tb.addNew(1, 0) }); n != 0 {
		t.Fatalf("one session's leave and rejoin allocate %v objects", n)
	}
	tb.addNew(2, 0)
	ix := &tb.x.index
	if len(ix.slots) != minEntrySlots || int(ix.n) != 2 || ix.get(1) != &tb.first {
		t.Fatalf("the second session did not make a four-slot index filing both")
	}
	for s := SessionID(3); s <= 100; s++ {
		tb.addNew(s, 0)
	}
	size := len(ix.slots)
	if size != 256 {
		t.Fatalf("100 entries in %d slots, want 256", size)
	}
	for s := SessionID(1); s <= 100; s++ {
		tb.remove(s)
	}
	if tb.x == nil || &tb.x.index != ix || int(ix.n) != 0 || len(ix.slots) != size {
		t.Fatalf("after removing everything: index %v (want 0 entries in %d slots)", ix, size)
	}
	if tb.addNew(7, 0) != &tb.first || ix.get(7) != &tb.first {
		t.Fatalf("a session joining the emptied table is not the inline entry filed in the index")
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
