package core

import (
	"fmt"
	"slices"

	"bneck/internal/rate"
)

// tableEntry is the per-session state a link keeps: the session's ID, which
// set it is in (R_e or F_e), its state μ, its recorded rate λ (meaningful
// only after the first accepted Response), and the hop index of this link on
// the session's path (needed to emit packets for sessions other than the one
// currently being processed). bucket and pos are the entry's place in the
// rate index (idleRates while IDLE in R_e, feRates while in F_e, nil
// otherwise, and always on a table without an index); see rateSet. The
// fields are ordered and sized so the entry fills a 64-byte allocation class
// (and one cache line) exactly.
type tableEntry struct {
	id        SessionID
	lambda    rate.Rate
	bucket    *rateBucket
	pos       int32
	hop       int32
	inRe      bool
	hasLambda bool
	mu        State
}

// table is a link's session table: the paper's R_e and F_e with the
// bookkeeping needed to evaluate every Figure 2 predicate in O(log k)
// (k = number of distinct rates at the link) instead of O(|S_e|). A
// table{capacity: c} is ready to use; RouterLink embeds one by value.
//
// The table keeps what every link needs; first is the entry the first addNew
// hands out (and again whenever it is free). What only a shared link needs
// is in x, which the second session makes, which files every entry from then
// on and is never dropped. Until then every predicate and snapshot answers
// from first, and B_e is C_e while it is in R_e: a one-session link (every
// link of a chain, most of a sparse topology) never divides, and a packet's
// visit reads nothing outside the link's record and allocates nothing. As
// first is reused, a pointer to it can outlive its session (in a snapshot
// buffer, or as a reprobe's skip): addNew resets the whole entry, remove
// leaves it out of both rate sets, and no handler keeps a snapshot across an
// addNew.
type table struct {
	_         noCopy
	capacity  rate.Rate
	reCount   int32
	reIdle    int32
	firstLive bool         // first holds a session
	x         *sharedIndex // nil until the link holds two sessions at once
	first     tableEntry
}

// sharedIndex is the part of a table only a shared link needs:
//
//   - index: the open-addressed SessionID index (entryMap) — the one
//     lookup a packet pays; everything after it works on the entry pointer
//   - sumFe: exact incremental Σ_{s∈F_e} λ_s, so B_e is O(1)
//   - idleRates: rates of R_e members with μ = IDLE (these are exactly the
//     sessions whose λ is meaningful and whose equality with B_e the
//     protocol tests)
//   - feRates: rates of F_e members (for ProcessNewRestricted's max test)
//   - scratch: RouterLink's snapshot buffer, with room for every session
//
// What every packet at a shared link reads, the index and B_e, comes first:
// the record fills the 192-byte allocation class, whose objects start on a
// cache line, so that is one line.
type sharedIndex struct {
	index     entryMap
	beCache   rate.Rate
	beValid   bool
	idleRates rateSet
	feRates   rateSet
	scratch   []*tableEntry
	sumFe     rate.Rate
	buckets   bucketPool // shared by idleRates and feRates
}

// file and unfile are the rate-set half of a table move: an idle R_e
// member is filed in idleRates, an F_e member in feRates and Σλ. A nil
// index has none; the one session's place is read off its entry.
func (x *sharedIndex) file(ent *tableEntry) {
	switch {
	case x == nil:
	case ent.inRe:
		x.idleRates.add(ent.lambda, ent, &x.buckets)
	default:
		x.feRates.add(ent.lambda, ent, &x.buckets)
		x.sumFe = x.sumFe.Add(ent.lambda)
	}
}

func (x *sharedIndex) unfile(ent *tableEntry) {
	switch {
	case x == nil:
	case ent.inRe:
		x.idleRates.remove(ent.lambda, ent, &x.buckets)
	default:
		x.feRates.remove(ent.lambda, ent, &x.buckets)
		x.sumFe = x.sumFe.Sub(ent.lambda)
	}
}

// noCopy marks a type that must not be copied after first use: the entry
// index files &table.first, so a copy would share the original's index and
// diverge from it. `go vet`'s copylocks check reports any by-value copy of a
// type containing one. Zero values and composite literals (table{capacity:
// c}) are where such a type starts; RouterLink.Init is the one initialiser.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// be returns B_e = (C_e − Σ_{s∈F_e} λ_s)/|R_e|, or +∞ when R_e is empty
// (an empty R_e restricts nothing). Without an index R_e is the one
// session and F_e empty, so B_e is C_e.
func (t *table) be() rate.Rate {
	x := t.x
	switch {
	case t.reCount == 0:
		return rate.Inf
	case x == nil:
		return t.capacity
	case !x.beValid:
		x.beCache = t.capacity.Sub(x.sumFe).DivInt(int(t.reCount))
		x.beValid = true
	}
	return x.beCache
}

func (t *table) invalidateBe() {
	if t.x != nil {
		t.x.beValid = false
	}
}

// get returns the entry for s, or nil if the link does not know s.
func (t *table) get(s SessionID) *tableEntry {
	if t.x != nil {
		return t.x.index.get(s)
	}
	if t.firstLive && t.first.id == s {
		return &t.first
	}
	return nil
}

// addNew registers a session in R_e with μ = WAITING_RESPONSE (a Join just
// passed). The caller must have ensured s is absent.
func (t *table) addNew(s SessionID, hop int) *tableEntry {
	if t.get(s) != nil {
		panic(fmt.Sprintf("core: addNew of existing session %d", s))
	}
	ent := &t.first
	if t.firstLive {
		ent = new(tableEntry)
		if t.x == nil { // the second: index first, filed as its state calls for
			t.x = new(sharedIndex)
			t.x.index.put(&t.first)
			if !t.first.inRe || t.first.mu == Idle {
				t.x.file(&t.first)
			}
		}
	}
	t.firstLive = true
	*ent = tableEntry{id: s, inRe: true, mu: WaitingResponse, hop: int32(hop)}
	if x := t.x; x != nil {
		x.index.put(ent)
		x.scratch = slices.Grow(x.scratch[:0], int(x.index.n))
	}
	t.reCount++
	t.invalidateBe()
	return ent
}

// remove deletes all state for s.
func (t *table) remove(s SessionID) {
	ent := t.get(s)
	if ent == nil {
		return
	}
	if t.x != nil {
		t.x.index.del(s)
	}
	if ent.inRe {
		t.setState(ent, WaitingProbe) // out of the idle set
		t.reCount--
	} else {
		t.x.unfile(ent)
	}
	if ent == &t.first {
		t.firstLive = false
	}
	t.invalidateBe()
}

// setState transitions μ for ent, maintaining the idle index.
func (t *table) setState(ent *tableEntry, mu State) {
	if ent.mu == mu {
		return
	}
	if mu == Idle {
		panic("core: use setIdle to enter IDLE")
	}
	if ent.inRe && ent.mu == Idle {
		t.x.unfile(ent)
		t.reIdle--
	}
	ent.mu = mu
}

// setIdle records an accepted Response: λ is stored and μ becomes IDLE.
// Only R_e members complete probe cycles.
func (t *table) setIdle(ent *tableEntry, lambda rate.Rate) {
	if !ent.inRe {
		panic(fmt.Sprintf("core: setIdle on F_e member %d", ent.id))
	}
	if ent.mu == Idle {
		t.x.unfile(ent)
		t.reIdle--
	}
	ent.lambda = lambda
	ent.hasLambda = true
	ent.mu = Idle
	t.x.file(ent)
	t.reIdle++
}

// moveFeToRe moves ent from F_e to R_e (Probe arrival or
// ProcessNewRestricted), keeping λ and μ.
func (t *table) moveFeToRe(ent *tableEntry) {
	if ent.inRe {
		panic(fmt.Sprintf("core: moveFeToRe on R_e member %d", ent.id))
	}
	t.x.unfile(ent)
	ent.inRe = true
	t.reCount++
	if ent.mu == Idle {
		t.x.file(ent)
		t.reIdle++
	}
	t.invalidateBe()
}

// moveReToFe moves ent from R_e to F_e (SetBottleneck at a non-restricting
// link). The entry must be IDLE (its λ is meaningful).
func (t *table) moveReToFe(ent *tableEntry) {
	if !ent.inRe {
		panic(fmt.Sprintf("core: moveReToFe on F_e member %d", ent.id))
	}
	if ent.mu != Idle || !ent.hasLambda {
		panic(fmt.Sprintf("core: moveReToFe on non-idle session %d", ent.id))
	}
	t.x.unfile(ent)
	t.reIdle--
	ent.inRe = false
	t.reCount--
	t.x.file(ent)
	t.invalidateBe()
}

// allReIdleAtBe evaluates the paper's bottleneck predicate
// ∀r ∈ R_e: λ_r = B_e ∧ μ_r = IDLE (false when R_e is empty: an empty link
// is not a bottleneck for anyone).
func (t *table) allReIdleAtBe() bool {
	if t.reCount == 0 || t.reIdle != t.reCount {
		return false
	}
	if t.x == nil {
		return t.first.lambda.Equal(t.be())
	}
	return t.x.idleRates.countAt(t.be()) == int(t.reCount)
}

// feMax returns the largest λ among F_e members.
func (t *table) feMax() (rate.Rate, bool) {
	if t.x == nil {
		return t.first.lambda, t.firstLive && !t.first.inRe
	}
	return t.x.feRates.max()
}

// The snapshot helpers append entries to dst, sorted by session ID, and
// return it, so a caller reusing one buffer takes a stable snapshot — one it
// can mutate the table under — without allocating and without looking any
// member up again.

// appendFeSessionsAt appends the F_e members with λ = r.
func (t *table) appendFeSessionsAt(dst []*tableEntry, r rate.Rate) []*tableEntry {
	if t.x == nil {
		return t.lone(dst, true, r, false)
	}
	return t.x.feRates.appendSessionsAt(dst, r)
}

// appendIdleAt appends the R_e members that are IDLE with λ = r.
func (t *table) appendIdleAt(dst []*tableEntry, r rate.Rate) []*tableEntry {
	if t.x == nil {
		return t.lone(dst, false, r, false)
	}
	return t.x.idleRates.appendSessionsAt(dst, r)
}

// appendIdleAbove appends the R_e members that are IDLE with λ > r.
func (t *table) appendIdleAbove(dst []*tableEntry, r rate.Rate) []*tableEntry {
	if t.x == nil {
		return t.lone(dst, false, r, true)
	}
	return t.x.idleRates.appendSessionsAbove(dst, r)
}

// appendIdleAll appends every IDLE R_e member.
func (t *table) appendIdleAll(dst []*tableEntry) []*tableEntry {
	if t.x == nil {
		return t.lone(dst, false, t.first.lambda, false) // its own λ: any
	}
	return t.x.idleRates.appendAll(dst)
}

// lone is the snapshot of a table without an index: first, if it is live,
// in F_e (fe) or IDLE in R_e (!fe), and its λ is r (or above r).
func (t *table) lone(dst []*tableEntry, fe bool, r rate.Rate, above bool) []*tableEntry {
	f := &t.first
	if t.firstLive && f.inRe != fe && (fe || f.mu == Idle) && (above && f.lambda.Greater(r) || !above && f.lambda.Equal(r)) {
		dst = append(dst, f)
	}
	return dst
}

// setCapacity changes C_e. The caller (RouterLink.SetCapacity) is responsible
// for re-probing sessions so the table re-converges at the new capacity.
func (t *table) setCapacity(c rate.Rate) {
	t.capacity = c
	t.invalidateBe()
}

// sessions returns the number of sessions known at the link.
func (t *table) sessions() int {
	if t.x != nil {
		return int(t.x.index.n)
	}
	if t.firstLive {
		return 1
	}
	return 0
}

// all yields every entry the table holds, in no particular order.
func (t *table) all(yield func(*tableEntry) bool) {
	if t.x == nil {
		if t.firstLive {
			yield(&t.first)
		}
		return
	}
	for _, slot := range t.x.index.slots {
		if slot.ent != nil && !yield(slot.ent) {
			return
		}
	}
}

// checkInvariants verifies internal consistency; tests call it after every
// operation sequence and Validate after every epoch. It returns the first
// violation found. Index membership is checked through the intrusive
// pointers, in O(1) per entry and per bucket member: every entry that must be
// indexed sits at its recorded position in a bucket of its own rate, every
// member of either set is a live entry of the right kind pointing back at
// that bucket, and the set sizes equal the entry counts — so the sets hold
// exactly the entries they should. A table without an index holds at most
// its inline entry, filed nowhere.
func (t *table) checkInvariants() error {
	var reCount, reIdle int32
	n := 0
	sum := rate.Zero
	for ent := range t.all {
		n++
		s := ent.id
		if t.get(s) != ent {
			return fmt.Errorf("session %d misfiled", s)
		}
		switch {
		case ent.inRe && ent.mu == Idle:
			reCount++
			reIdle++
			if !ent.hasLambda {
				return fmt.Errorf("idle session %d without lambda", s)
			}
			if !t.filed(ent) {
				return fmt.Errorf("idle session %d missing from idle index", s)
			}
		case ent.inRe:
			reCount++
			if ent.bucket != nil {
				return fmt.Errorf("non-idle session %d left in a rate index", s)
			}
		default:
			if !ent.hasLambda {
				return fmt.Errorf("F_e session %d without lambda", s)
			}
			sum = sum.Add(ent.lambda)
			if !t.filed(ent) {
				return fmt.Errorf("F_e session %d missing from fe index", s)
			}
		}
	}
	if reCount != t.reCount {
		return fmt.Errorf("reCount = %d, counted %d", t.reCount, reCount)
	}
	if reIdle != t.reIdle {
		return fmt.Errorf("reIdle = %d, counted %d", t.reIdle, reIdle)
	}
	if t.reCount > 0 && t.capacity.Sub(sum).Sign() < 0 {
		return fmt.Errorf("F_e oversubscribed: sum %v > capacity %v", sum, t.capacity)
	}
	x := t.x
	if x == nil {
		if n > 1 {
			return fmt.Errorf("%d sessions without an index", n)
		}
		return nil
	}
	if n != int(x.index.n) {
		return fmt.Errorf("entry index size %d, counted %d", x.index.n, n)
	}
	if !sum.Equal(x.sumFe) {
		return fmt.Errorf("sumFe = %v, counted %v", x.sumFe, sum)
	}
	if err := t.checkIndex(&x.idleRates, "idle", true); err != nil {
		return err
	}
	if err := t.checkIndex(&x.feRates, "fe", false); err != nil {
		return err
	}
	if x.idleRates.len() != int(reIdle) {
		return fmt.Errorf("idle index size %d, want %d", x.idleRates.len(), reIdle)
	}
	if x.feRates.len() != n-int(reCount) {
		return fmt.Errorf("fe index size %d, want %d", x.feRates.len(), n-int(reCount))
	}
	return nil
}

// filed reports whether an entry that belongs in a rate set sits where it
// says it does: at pos in a bucket whose rate is its λ. Without an index it
// must say nowhere.
func (t *table) filed(ent *tableEntry) bool {
	b := ent.bucket
	if t.x == nil {
		return b == nil
	}
	return b != nil && int(ent.pos) < len(b.members) && b.members[ent.pos] == ent && b.rate.Equal(ent.lambda)
}

// checkIndex verifies one rate index from the bucket side: buckets ascending
// and non-empty, every member a live entry of this table that points back at
// its bucket and position and belongs in this set (idle R_e members in the
// idle index, F_e members in the fe index).
func (t *table) checkIndex(rs *rateSet, name string, inRe bool) error {
	for i, b := range rs.buckets {
		if len(b.members) == 0 {
			return fmt.Errorf("%s index keeps an empty bucket at %v", name, b.rate)
		}
		if i > 0 && !rs.buckets[i-1].rate.Less(b.rate) {
			return fmt.Errorf("%s index buckets out of order at %v", name, b.rate)
		}
		for pos, m := range b.members {
			if m.bucket != b || int(m.pos) != pos {
				return fmt.Errorf("%s index member %d at %v does not point back", name, m.id, b.rate)
			}
			if t.get(m.id) != m {
				return fmt.Errorf("%s index holds session %d, which the table does not", name, m.id)
			}
			if m.inRe != inRe || (inRe && m.mu != Idle) {
				return fmt.Errorf("session %d filed in the %s index", m.id, name)
			}
		}
	}
	return nil
}
