package core

import (
	"fmt"

	"bneck/internal/rate"
)

// tableEntry is the per-session state a link keeps: the session's ID, which
// set it is in (R_e or F_e), its state μ, its recorded rate λ (meaningful
// only after the first accepted Response), and the hop index of this link on
// the session's path (needed to emit packets for sessions other than the one
// currently being processed). bucket and pos are the entry's place in the
// rate index (idleRates while IDLE in R_e, feRates while in F_e, nil
// otherwise); see rateSet. The fields are ordered and sized so the entry
// fills a 64-byte allocation class (and one cache line) exactly.
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
// (k = number of distinct rates at the link) instead of O(|S_e|):
//
//   - index: the open-addressed SessionID index (entryMap) — the one
//     lookup a packet pays; everything after it works on the entry pointer
//   - sumFe: exact incremental Σ_{s∈F_e} λ_s, so B_e is O(1)
//   - idleRates: rates of R_e members with μ = IDLE (these are exactly the
//     sessions whose λ is meaningful and whose equality with B_e the
//     protocol tests)
//   - feRates: rates of F_e members (for ProcessNewRestricted's max test)
//
// A table{capacity: c} is ready to use; RouterLink embeds one by value.
//
// The first session's state is inline: first is the tableEntry the first
// addNew hands out (and again whenever it is free). Until a second session
// comes there is no index — get compares first.id — so a link carrying one
// session (every link of a chain, most of a sparse topology) keeps all a
// packet touches in its one record and allocates nothing after it. The
// second session makes the index, which files every entry from then on,
// first included, and is never dropped. As first is reused, a pointer to it
// can outlive its session (in RouterLink.scratch, or as a reprobe's skip):
// addNew resets the whole entry, remove leaves it out of both rate sets,
// and no handler keeps a snapshot across an addNew.
type table struct {
	_         noCopy
	capacity  rate.Rate
	sumFe     rate.Rate
	beCache   rate.Rate
	reCount   int32
	reIdle    int32
	beValid   bool
	firstLive bool      // first holds a session
	index     *entryMap // nil until the link holds two sessions at once
	first     tableEntry
	idleRates rateSet
	feRates   rateSet
	buckets   bucketPool // shared by idleRates and feRates
}

// noCopy marks a type that must not be copied after first use, because it
// holds slices into its own inline storage (rateSet.buckets, bucketPool.free,
// rateBucket.members, RouterLink.scratch) or pointers to it (table.index
// files &first): a copy would share the original's arrays and then diverge
// from it at the first spill. `go vet`'s copylocks check reports any
// by-value copy of a type containing one. Zero values and composite literals
// (table{capacity: c}) are where such a type starts; RouterLink.Init is the
// one initialiser, and everything after it goes through pointers.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// be returns B_e = (C_e − Σ_{s∈F_e} λ_s)/|R_e|, or +∞ when R_e is empty
// (an empty R_e restricts nothing).
func (t *table) be() rate.Rate {
	if t.reCount == 0 {
		return rate.Inf
	}
	if !t.beValid {
		t.beCache = t.capacity.Sub(t.sumFe).DivInt(int(t.reCount))
		t.beValid = true
	}
	return t.beCache
}

func (t *table) invalidateBe() { t.beValid = false }

// get returns the entry for s, or nil if the link does not know s.
func (t *table) get(s SessionID) *tableEntry {
	if t.index != nil {
		return t.index.get(s)
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
		if t.index == nil { // the second session: from here on the index files everyone
			t.index = new(entryMap)
			t.index.put(&t.first)
		}
	}
	t.firstLive = true
	*ent = tableEntry{id: s, inRe: true, mu: WaitingResponse, hop: int32(hop)}
	if t.index != nil {
		t.index.put(ent)
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
	t.index.del(s)
	if ent.inRe {
		if ent.mu == Idle {
			t.idleRates.remove(ent.lambda, ent, &t.buckets)
			t.reIdle--
		}
		t.reCount--
	} else {
		t.feRates.remove(ent.lambda, ent, &t.buckets)
		t.sumFe = t.sumFe.Sub(ent.lambda)
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
		t.idleRates.remove(ent.lambda, ent, &t.buckets)
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
		t.idleRates.remove(ent.lambda, ent, &t.buckets)
		t.reIdle--
	}
	ent.lambda = lambda
	ent.hasLambda = true
	ent.mu = Idle
	t.idleRates.add(lambda, ent, &t.buckets)
	t.reIdle++
}

// moveFeToRe moves ent from F_e to R_e (Probe arrival or
// ProcessNewRestricted), keeping λ and μ.
func (t *table) moveFeToRe(ent *tableEntry) {
	if ent.inRe {
		panic(fmt.Sprintf("core: moveFeToRe on R_e member %d", ent.id))
	}
	t.feRates.remove(ent.lambda, ent, &t.buckets)
	t.sumFe = t.sumFe.Sub(ent.lambda)
	ent.inRe = true
	t.reCount++
	if ent.mu == Idle {
		t.idleRates.add(ent.lambda, ent, &t.buckets)
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
	t.idleRates.remove(ent.lambda, ent, &t.buckets)
	t.reIdle--
	ent.inRe = false
	t.reCount--
	t.sumFe = t.sumFe.Add(ent.lambda)
	t.feRates.add(ent.lambda, ent, &t.buckets)
	t.invalidateBe()
}

// allReIdleAtBe evaluates the paper's bottleneck predicate
// ∀r ∈ R_e: λ_r = B_e ∧ μ_r = IDLE (false when R_e is empty: an empty link
// is not a bottleneck for anyone).
func (t *table) allReIdleAtBe() bool {
	if t.reCount == 0 || t.reIdle != t.reCount {
		return false
	}
	return t.idleRates.countAt(t.be()) == int(t.reCount)
}

// feMax returns the largest λ among F_e members.
func (t *table) feMax() (rate.Rate, bool) { return t.feRates.max() }

// The snapshot helpers append entries to dst, sorted by session ID, and
// return it, so a caller reusing one buffer takes a stable snapshot — one it
// can mutate the table under — without allocating and without looking any
// member up again.

// appendFeSessionsAt appends the F_e members with λ = r.
func (t *table) appendFeSessionsAt(dst []*tableEntry, r rate.Rate) []*tableEntry {
	return t.feRates.appendSessionsAt(dst, r)
}

// appendIdleAt appends the R_e members that are IDLE with λ = r.
func (t *table) appendIdleAt(dst []*tableEntry, r rate.Rate) []*tableEntry {
	return t.idleRates.appendSessionsAt(dst, r)
}

// appendIdleAbove appends the R_e members that are IDLE with λ > r.
func (t *table) appendIdleAbove(dst []*tableEntry, r rate.Rate) []*tableEntry {
	return t.idleRates.appendSessionsAbove(dst, r)
}

// appendIdleAll appends every IDLE R_e member.
func (t *table) appendIdleAll(dst []*tableEntry) []*tableEntry {
	return t.idleRates.appendAll(dst)
}

// setCapacity changes C_e. The caller (RouterLink.SetCapacity) is responsible
// for re-probing sessions so the table re-converges at the new capacity.
func (t *table) setCapacity(c rate.Rate) {
	t.capacity = c
	t.invalidateBe()
}

// sessions returns the number of sessions known at the link.
func (t *table) sessions() int { return int(t.reCount) + t.feRates.len() }

// all yields every entry the table holds, in no particular order.
func (t *table) all(yield func(*tableEntry) bool) {
	if t.index == nil {
		if t.firstLive {
			yield(&t.first)
		}
		return
	}
	for _, slot := range t.index.slots {
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
// exactly the entries they should.
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
			if !ent.indexed() {
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
			if !ent.indexed() {
				return fmt.Errorf("F_e session %d missing from fe index", s)
			}
		}
	}
	if t.index != nil && n != int(t.index.n) {
		return fmt.Errorf("entry index size %d, counted %d", t.index.n, n)
	}
	if reCount != t.reCount {
		return fmt.Errorf("reCount = %d, counted %d", t.reCount, reCount)
	}
	if reIdle != t.reIdle {
		return fmt.Errorf("reIdle = %d, counted %d", t.reIdle, reIdle)
	}
	if !sum.Equal(t.sumFe) {
		return fmt.Errorf("sumFe = %v, counted %v", t.sumFe, sum)
	}
	if err := t.checkIndex(&t.idleRates, "idle", true); err != nil {
		return err
	}
	if err := t.checkIndex(&t.feRates, "fe", false); err != nil {
		return err
	}
	if t.idleRates.len() != int(reIdle) {
		return fmt.Errorf("idle index size %d, want %d", t.idleRates.len(), reIdle)
	}
	if t.feRates.len() != n-int(reCount) {
		return fmt.Errorf("fe index size %d, want %d", t.feRates.len(), n-int(reCount))
	}
	if t.reCount > 0 && t.capacity.Sub(t.sumFe).Sign() < 0 {
		return fmt.Errorf("F_e oversubscribed: sum %v > capacity %v", t.sumFe, t.capacity)
	}
	return nil
}

// indexed reports whether ent sits where it says it does: at pos in a bucket
// whose rate is its λ.
func (ent *tableEntry) indexed() bool {
	b := ent.bucket
	return b != nil && int(ent.pos) < len(b.members) && b.members[ent.pos] == ent && b.rate.Equal(ent.lambda)
}

// checkIndex verifies one rate index from the bucket side: buckets ascending
// and non-empty, every member a live entry of this table that points back at
// its bucket and position and belongs in this set (idle R_e members in the
// idle index, F_e members in the fe index), and the size the sum of the
// bucket sizes.
func (t *table) checkIndex(rs *rateSet, name string, inRe bool) error {
	size := 0
	for i, b := range rs.buckets {
		if len(b.members) == 0 {
			return fmt.Errorf("%s index keeps an empty bucket at %v", name, b.rate)
		}
		if i > 0 && !rs.buckets[i-1].rate.Less(b.rate) {
			return fmt.Errorf("%s index buckets out of order at %v", name, b.rate)
		}
		size += len(b.members)
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
	if size != rs.len() {
		return fmt.Errorf("%s index size %d, buckets hold %d", name, rs.len(), size)
	}
	return nil
}
