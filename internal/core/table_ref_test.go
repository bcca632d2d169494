package core

import (
	"fmt"
	"slices"
	"sort"

	"bneck/internal/rate"
)

// The map-based session table and rate set this package used until the
// open-addressed index and the intrusive buckets replaced them, kept verbatim
// (types renamed ref*) as the reference the differential tests in
// table_diff_test.go run the new structures against.

// refTableEntry is the per-session state a link keeps: which set the session is
// in (R_e or F_e), its state μ, its recorded rate λ (meaningful only after
// the first accepted Response), and the hop index of this link on the
// session's path (needed to emit packets for sessions other than the one
// currently being processed).
type refTableEntry struct {
	inRe      bool
	mu        State
	lambda    rate.Rate
	hasLambda bool
	hop       int
}

// refTable is a link's session table: the paper's R_e and F_e with the
// bookkeeping needed to evaluate every Figure 2 predicate in O(log k)
// (k = number of distinct rates at the link) instead of O(|S_e|):
//
//   - sumFe: exact incremental Σ_{s∈F_e} λ_s, so B_e is O(1)
//   - idleRates: rates of R_e members with μ = IDLE (these are exactly the
//     sessions whose λ is meaningful and whose equality with B_e the
//     protocol tests)
//   - feRates: rates of F_e members (for ProcessNewRestricted's max test)
type refTable struct {
	capacity  rate.Rate
	entries   map[SessionID]*refTableEntry
	sumFe     rate.Rate
	reCount   int
	reIdle    int
	idleRates refRateSet
	feRates   refRateSet

	beCache rate.Rate
	beValid bool
}

func newRefTable(capacity rate.Rate) *refTable {
	return &refTable{
		capacity: capacity,
		entries:  make(map[SessionID]*refTableEntry),
	}
}

// be returns B_e = (C_e − Σ_{s∈F_e} λ_s)/|R_e|, or +∞ when R_e is empty
// (an empty R_e restricts nothing).
func (t *refTable) be() rate.Rate {
	if t.reCount == 0 {
		return rate.Inf
	}
	if !t.beValid {
		t.beCache = t.capacity.Sub(t.sumFe).DivInt(t.reCount)
		t.beValid = true
	}
	return t.beCache
}

func (t *refTable) invalidateBe() { t.beValid = false }

// get returns the entry for s, or nil if the link does not know s.
func (t *refTable) get(s SessionID) *refTableEntry { return t.entries[s] }

// addNew registers a session in R_e with μ = WAITING_RESPONSE (a Join just
// passed). The caller must have ensured s is absent.
func (t *refTable) addNew(s SessionID, hop int) *refTableEntry {
	if _, ok := t.entries[s]; ok {
		panic(fmt.Sprintf("core: addNew of existing session %d", s))
	}
	ent := &refTableEntry{inRe: true, mu: WaitingResponse, hop: hop}
	t.entries[s] = ent
	t.reCount++
	t.invalidateBe()
	return ent
}

// remove deletes all state for s.
func (t *refTable) remove(s SessionID) {
	ent, ok := t.entries[s]
	if !ok {
		return
	}
	if ent.inRe {
		if ent.mu == Idle {
			t.idleRates.remove(ent.lambda, s)
			t.reIdle--
		}
		t.reCount--
	} else {
		t.feRates.remove(ent.lambda, s)
		t.sumFe = t.sumFe.Sub(ent.lambda)
	}
	delete(t.entries, s)
	t.invalidateBe()
}

// setState transitions μ for s, maintaining the idle index.
func (t *refTable) setState(s SessionID, ent *refTableEntry, mu State) {
	if ent.mu == mu {
		return
	}
	if mu == Idle {
		panic("core: use setIdle to enter IDLE")
	}
	if ent.inRe && ent.mu == Idle {
		t.idleRates.remove(ent.lambda, s)
		t.reIdle--
	}
	ent.mu = mu
}

// setIdle records an accepted Response: λ is stored and μ becomes IDLE.
// Only R_e members complete probe cycles.
func (t *refTable) setIdle(s SessionID, ent *refTableEntry, lambda rate.Rate) {
	if !ent.inRe {
		panic(fmt.Sprintf("core: setIdle on F_e member %d", s))
	}
	if ent.mu == Idle {
		t.idleRates.remove(ent.lambda, s)
		t.reIdle--
	}
	ent.lambda = lambda
	ent.hasLambda = true
	ent.mu = Idle
	t.idleRates.add(lambda, s)
	t.reIdle++
}

// moveFeToRe moves s from F_e to R_e (Probe arrival or ProcessNewRestricted),
// keeping λ and μ.
func (t *refTable) moveFeToRe(s SessionID, ent *refTableEntry) {
	if ent.inRe {
		panic(fmt.Sprintf("core: moveFeToRe on R_e member %d", s))
	}
	t.feRates.remove(ent.lambda, s)
	t.sumFe = t.sumFe.Sub(ent.lambda)
	ent.inRe = true
	t.reCount++
	if ent.mu == Idle {
		t.idleRates.add(ent.lambda, s)
		t.reIdle++
	}
	t.invalidateBe()
}

// moveReToFe moves s from R_e to F_e (SetBottleneck at a non-restricting
// link). The entry must be IDLE (its λ is meaningful).
func (t *refTable) moveReToFe(s SessionID, ent *refTableEntry) {
	if !ent.inRe {
		panic(fmt.Sprintf("core: moveReToFe on F_e member %d", s))
	}
	if ent.mu != Idle || !ent.hasLambda {
		panic(fmt.Sprintf("core: moveReToFe on non-idle session %d", s))
	}
	t.idleRates.remove(ent.lambda, s)
	t.reIdle--
	ent.inRe = false
	t.reCount--
	t.sumFe = t.sumFe.Add(ent.lambda)
	t.feRates.add(ent.lambda, s)
	t.invalidateBe()
}

// allReIdleAtBe evaluates the paper's bottleneck predicate
// ∀r ∈ R_e: λ_r = B_e ∧ μ_r = IDLE (false when R_e is empty: an empty link
// is not a bottleneck for anyone).
func (t *refTable) allReIdleAtBe() bool {
	if t.reCount == 0 || t.reIdle != t.reCount {
		return false
	}
	return t.idleRates.countAt(t.be()) == t.reCount
}

// feMax returns the largest λ among F_e members.
func (t *refTable) feMax() (rate.Rate, bool) { return t.feRates.max() }

// feSessionsAt returns the F_e members with λ = r, sorted.
func (t *refTable) feSessionsAt(r rate.Rate) []SessionID { return t.feRates.sessionsAt(r) }

// idleAt returns the R_e members that are IDLE with λ = r, sorted.
func (t *refTable) idleAt(r rate.Rate) []SessionID { return t.idleRates.sessionsAt(r) }

// idleAbove returns the R_e members that are IDLE with λ > r, sorted.
func (t *refTable) idleAbove(r rate.Rate) []SessionID { return t.idleRates.sessionsAbove(r) }

// appendFeSessionsAt, appendIdleAt and appendIdleAbove are the scratch-slice
// forms of the snapshots above: they append to dst and return it, so a
// caller reusing one buffer takes a stable snapshot without allocating.
func (t *refTable) appendFeSessionsAt(dst []SessionID, r rate.Rate) []SessionID {
	return t.feRates.appendSessionsAt(dst, r)
}

func (t *refTable) appendIdleAt(dst []SessionID, r rate.Rate) []SessionID {
	return t.idleRates.appendSessionsAt(dst, r)
}

func (t *refTable) appendIdleAbove(dst []SessionID, r rate.Rate) []SessionID {
	return t.idleRates.appendSessionsAbove(dst, r)
}

// appendIdleAll appends every IDLE R_e member to dst, sorted by ID.
func (t *refTable) appendIdleAll(dst []SessionID) []SessionID {
	return t.idleRates.appendAll(dst)
}

// setCapacity changes C_e. The caller (RouterLink.SetCapacity) is responsible
// for re-probing sessions so the table re-converges at the new capacity.
func (t *refTable) setCapacity(c rate.Rate) {
	t.capacity = c
	t.invalidateBe()
}

// sessions returns the number of sessions known at the link.
func (t *refTable) sessions() int { return len(t.entries) }

// checkInvariants verifies internal consistency; tests call it after every
// operation sequence. It returns the first violation found.
func (t *refTable) checkInvariants() error {
	reCount, reIdle := 0, 0
	sum := rate.Zero
	for s, ent := range t.entries {
		if ent.inRe {
			reCount++
			if ent.mu == Idle {
				reIdle++
				if !ent.hasLambda {
					return fmt.Errorf("idle session %d without lambda", s)
				}
				if t.idleRates.countAt(ent.lambda) == 0 {
					return fmt.Errorf("idle session %d missing from idle index", s)
				}
			}
		} else {
			if !ent.hasLambda {
				return fmt.Errorf("F_e session %d without lambda", s)
			}
			sum = sum.Add(ent.lambda)
			if t.feRates.countAt(ent.lambda) == 0 {
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
	if !sum.Equal(t.sumFe) {
		return fmt.Errorf("sumFe = %v, counted %v", t.sumFe, sum)
	}
	if t.idleRates.len() != reIdle {
		return fmt.Errorf("idle index size %d, want %d", t.idleRates.len(), reIdle)
	}
	if t.feRates.len() != len(t.entries)-reCount {
		return fmt.Errorf("fe index size %d, want %d", t.feRates.len(), len(t.entries)-reCount)
	}
	if t.reCount > 0 && t.capacity.Sub(t.sumFe).Sign() < 0 {
		return fmt.Errorf("F_e oversubscribed: sum %v > capacity %v", t.sumFe, t.capacity)
	}
	return nil
}

// refRateSet is a multiset of sessions keyed by their rate, ordered by rate.
// The number of distinct rates at one link is small in practice (bounded by
// the number of bottleneck levels that ever touched the link), so a sorted
// slice of buckets with binary search is both simple and fast.
//
// Buckets whose last session leaves are parked on a free list instead of
// being dropped: rates churn heavily while a link converges (every B_e
// revision empties one bucket and fills another), and reusing the bucket and
// its session map keeps that churn allocation-free.
type refRateSet struct {
	buckets []*refRateBucket // ascending by rate
	size    int
	free    []*refRateBucket // emptied buckets kept for reuse
}

type refRateBucket struct {
	rate     rate.Rate
	sessions map[SessionID]struct{}
}

// add inserts session s with rate r.
func (rs *refRateSet) add(r rate.Rate, s SessionID) {
	i := rs.search(r)
	if i < len(rs.buckets) && rs.buckets[i].rate.Equal(r) {
		rs.buckets[i].sessions[s] = struct{}{}
	} else {
		var b *refRateBucket
		if k := len(rs.free); k > 0 {
			b = rs.free[k-1]
			rs.free = rs.free[:k-1]
			b.rate = r
		} else {
			b = &refRateBucket{rate: r, sessions: make(map[SessionID]struct{})}
		}
		b.sessions[s] = struct{}{}
		rs.buckets = append(rs.buckets, nil)
		copy(rs.buckets[i+1:], rs.buckets[i:])
		rs.buckets[i] = b
	}
	rs.size++
}

// remove deletes session s with rate r. It panics if absent: the table keeps
// index membership in lockstep with entries, and a mismatch is a bug.
func (rs *refRateSet) remove(r rate.Rate, s SessionID) {
	i := rs.search(r)
	if i >= len(rs.buckets) || !rs.buckets[i].rate.Equal(r) {
		panic("core: refRateSet.remove of absent rate")
	}
	b := rs.buckets[i]
	if _, ok := b.sessions[s]; !ok {
		panic("core: refRateSet.remove of absent session")
	}
	delete(b.sessions, s)
	rs.size--
	if len(b.sessions) == 0 {
		rs.buckets = append(rs.buckets[:i], rs.buckets[i+1:]...)
		b.rate = rate.Zero
		rs.free = append(rs.free, b)
	}
}

// search returns the first index whose bucket rate is >= r.
func (rs *refRateSet) search(r rate.Rate) int {
	return sort.Search(len(rs.buckets), func(i int) bool {
		return rs.buckets[i].rate.GreaterEq(r)
	})
}

// max returns the largest rate present, if any.
func (rs *refRateSet) max() (rate.Rate, bool) {
	if len(rs.buckets) == 0 {
		return rate.Zero, false
	}
	return rs.buckets[len(rs.buckets)-1].rate, true
}

// countAt returns how many sessions have exactly rate r.
func (rs *refRateSet) countAt(r rate.Rate) int {
	i := rs.search(r)
	if i < len(rs.buckets) && rs.buckets[i].rate.Equal(r) {
		return len(rs.buckets[i].sessions)
	}
	return 0
}

// sessionsAt returns the sessions with exactly rate r, sorted by ID so that
// emission order (and hence the whole simulation) is deterministic. The
// caller owns the returned slice.
func (rs *refRateSet) sessionsAt(r rate.Rate) []SessionID {
	return rs.appendSessionsAt(nil, r)
}

// appendSessionsAt appends the sessions with exactly rate r to dst, sorted
// by ID, and returns the extended slice. Passing a reused scratch slice
// (dst[:0]) makes the snapshot allocation-free once warm.
func (rs *refRateSet) appendSessionsAt(dst []SessionID, r rate.Rate) []SessionID {
	i := rs.search(r)
	if i >= len(rs.buckets) || !rs.buckets[i].rate.Equal(r) {
		return dst
	}
	base := len(dst)
	for s := range rs.buckets[i].sessions {
		dst = append(dst, s)
	}
	slices.Sort(dst[base:])
	return dst
}

// sessionsAbove returns all sessions with rate strictly greater than r,
// sorted by ID.
func (rs *refRateSet) sessionsAbove(r rate.Rate) []SessionID {
	return rs.appendSessionsAbove(nil, r)
}

// appendSessionsAbove appends all sessions with rate strictly greater than r
// to dst, sorted by ID, and returns the extended slice.
func (rs *refRateSet) appendSessionsAbove(dst []SessionID, r rate.Rate) []SessionID {
	i := sort.Search(len(rs.buckets), func(i int) bool {
		return rs.buckets[i].rate.Greater(r)
	})
	base := len(dst)
	for ; i < len(rs.buckets); i++ {
		for s := range rs.buckets[i].sessions {
			dst = append(dst, s)
		}
	}
	slices.Sort(dst[base:])
	return dst
}

// appendAll appends every session in the set to dst, sorted by ID, and
// returns the extended slice.
func (rs *refRateSet) appendAll(dst []SessionID) []SessionID {
	base := len(dst)
	for _, b := range rs.buckets {
		for s := range b.sessions {
			dst = append(dst, s)
		}
	}
	slices.Sort(dst[base:])
	return dst
}

// len returns the number of sessions in the set.
func (rs *refRateSet) len() int { return rs.size }

// distinct returns the number of distinct rates (for stats and tests).
func (rs *refRateSet) distinct() int { return len(rs.buckets) }
