package core

import (
	"cmp"
	"slices"

	"bneck/internal/rate"
)

// rateSet is a multiset of table entries keyed by their rate, ordered by
// rate. The number of distinct rates at one link is small in practice
// (bounded by the number of bottleneck levels that ever touched the link),
// so a sorted slice of buckets with binary search is both simple and fast.
//
// The set is intrusive: a bucket lists its members in arrival order and
// every member records its bucket and its position in it
// (tableEntry.bucket/pos), so once the bucket is found add is an append and
// remove a swap with the last member — no per-bucket hashing. An entry is in
// at most one rateSet at a time (the table files idle R_e members in one set
// and F_e members in the other), which is why one bucket/pos pair per entry
// suffices.
//
// Buckets whose last member leaves are parked in a bucketPool instead of
// being dropped: rates churn heavily while a link converges (every B_e
// revision empties one bucket and fills another), and reusing the bucket and
// its member slice keeps that churn allocation-free. A table's two sets
// share one pool — a bucket does not care which set files it — so a session
// moving between R_e and F_e carries its bucket along.
type rateSet struct {
	buckets []*rateBucket // ascending by rate
}

type rateBucket struct {
	rate    rate.Rate
	members []*tableEntry // unordered; members[i].pos == i
}

// bucketPool supplies the rate sets of one table with buckets: emptied ones
// first, then the heap.
type bucketPool struct {
	free []*rateBucket // emptied buckets kept for reuse
}

// get returns an empty bucket.
func (p *bucketPool) get() *rateBucket {
	if k := len(p.free); k > 0 {
		b := p.free[k-1]
		p.free = p.free[:k-1]
		return b
	}
	return new(rateBucket)
}

// put parks an emptied bucket.
func (p *bucketPool) put(b *rateBucket) {
	b.rate = rate.Zero
	p.free = append(p.free, b)
}

// add inserts ent with rate r, taking a bucket from pool if r is new to the
// set. It panics if ent is already in a set.
func (rs *rateSet) add(r rate.Rate, ent *tableEntry, pool *bucketPool) {
	if ent.bucket != nil {
		panic("core: rateSet.add of indexed session")
	}
	i, ok := rs.search(r)
	var b *rateBucket
	if ok {
		b = rs.buckets[i]
	} else {
		b = pool.get()
		b.rate = r
		rs.buckets = append(rs.buckets, nil)
		copy(rs.buckets[i+1:], rs.buckets[i:])
		rs.buckets[i] = b
	}
	ent.bucket, ent.pos = b, int32(len(b.members))
	b.members = append(b.members, ent)
}

// remove deletes ent, filed at rate r, and hands a bucket it empties to
// pool. It panics if absent: the table keeps index membership in lockstep
// with entries, and a mismatch is a bug. The bucket comes from the entry, not
// from a search: only a remove that empties its bucket has to find the
// bucket's place in the order, and that is also where an entry filed at r in
// some other set is caught (between those, the table's checkInvariants sees
// it). Nothing is modified before the checks pass.
func (rs *rateSet) remove(r rate.Rate, ent *tableEntry, pool *bucketPool) {
	b := ent.bucket
	if b == nil || !b.rate.Equal(r) {
		rs.panicAbsent(r)
	}
	last := len(b.members) - 1
	if last == 0 {
		i, ok := rs.search(r)
		if !ok || rs.buckets[i] != b {
			rs.panicAbsent(r)
		}
		rs.buckets = append(rs.buckets[:i], rs.buckets[i+1:]...)
		pool.put(b)
	}
	moved := b.members[last]
	b.members[ent.pos] = moved
	moved.pos = ent.pos
	b.members[last] = nil
	b.members = b.members[:last]
	ent.bucket, ent.pos = nil, 0
}

// panicAbsent reports a remove of an entry that is not filed at r in this
// set: no bucket holds r at all, or one does and the entry is not in it.
func (rs *rateSet) panicAbsent(r rate.Rate) {
	if _, ok := rs.search(r); !ok {
		panic("core: rateSet.remove of absent rate")
	}
	panic("core: rateSet.remove of absent session")
}

// search returns the index of the bucket with rate r and true, or the index
// at which such a bucket would be inserted and false.
func (rs *rateSet) search(r rate.Rate) (int, bool) {
	lo, hi := 0, len(rs.buckets)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch c := rs.buckets[mid].rate.Cmp(r); {
		case c < 0:
			lo = mid + 1
		case c > 0:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// max returns the largest rate present, if any.
func (rs *rateSet) max() (rate.Rate, bool) {
	if len(rs.buckets) == 0 {
		return rate.Zero, false
	}
	return rs.buckets[len(rs.buckets)-1].rate, true
}

// countAt returns how many sessions have exactly rate r.
func (rs *rateSet) countAt(r rate.Rate) int {
	if i, ok := rs.search(r); ok {
		return len(rs.buckets[i].members)
	}
	return 0
}

// appendSessionsAt appends the entries with exactly rate r to dst, sorted
// by session ID so that emission order (and hence the whole simulation) is
// deterministic, and returns the extended slice. Passing a reused scratch
// slice (dst[:0]) makes the snapshot allocation-free once warm.
func (rs *rateSet) appendSessionsAt(dst []*tableEntry, r rate.Rate) []*tableEntry {
	i, ok := rs.search(r)
	if !ok {
		return dst
	}
	base := len(dst)
	dst = append(dst, rs.buckets[i].members...)
	sortByID(dst[base:])
	return dst
}

// appendSessionsAbove appends all entries with rate strictly greater than r
// to dst, sorted by session ID, and returns the extended slice.
func (rs *rateSet) appendSessionsAbove(dst []*tableEntry, r rate.Rate) []*tableEntry {
	i, ok := rs.search(r)
	if ok {
		i++
	}
	base := len(dst)
	for _, b := range rs.buckets[i:] {
		dst = append(dst, b.members...)
	}
	sortByID(dst[base:])
	return dst
}

// appendAll appends every entry in the set to dst, sorted by session ID,
// and returns the extended slice.
func (rs *rateSet) appendAll(dst []*tableEntry) []*tableEntry {
	base := len(dst)
	for _, b := range rs.buckets {
		dst = append(dst, b.members...)
	}
	sortByID(dst[base:])
	return dst
}

// sortByID orders a snapshot by session ID. Bucket order is arrival order
// perturbed by swap-removes — a function of the packet history, not of the
// set's contents — so every snapshot is sorted before anything is emitted
// from it.
func sortByID(ents []*tableEntry) {
	slices.SortFunc(ents, func(a, b *tableEntry) int { return cmp.Compare(a.id, b.id) })
}

// len returns the number of sessions in the set, counting them: only the
// checks ask.
func (rs *rateSet) len() (n int) {
	for _, b := range rs.buckets {
		n += len(b.members)
	}
	return n
}
