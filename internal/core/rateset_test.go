package core

import (
	"math/rand"
	"sort"
	"testing"

	"bneck/internal/rate"
)

func TestRateSetBasics(t *testing.T) {
	var rs rateSet
	var pool bucketPool
	if _, ok := rs.max(); ok {
		t.Fatalf("empty set has a max")
	}
	e1, e2, e3 := &tableEntry{id: 1}, &tableEntry{id: 2}, &tableEntry{id: 3}
	rs.add(rate.Mbps(5), e3, &pool)
	rs.add(rate.Mbps(3), e2, &pool)
	rs.add(rate.Mbps(5), e1, &pool)
	if rs.len() != 3 || rs.distinct() != 2 {
		t.Fatalf("len=%d distinct=%d", rs.len(), rs.distinct())
	}
	if m, ok := rs.max(); !ok || !m.Equal(rate.Mbps(5)) {
		t.Fatalf("max = %v", m)
	}
	if rs.countAt(rate.Mbps(5)) != 2 || rs.countAt(rate.Mbps(3)) != 1 || rs.countAt(rate.Mbps(9)) != 0 {
		t.Fatalf("counts wrong")
	}
	got := ids(rs.appendSessionsAt(nil, rate.Mbps(5)))
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("appendSessionsAt = %v (must be sorted)", got)
	}
	above := rs.appendSessionsAbove(nil, rate.Mbps(3))
	if len(above) != 2 {
		t.Fatalf("appendSessionsAbove = %v", ids(above))
	}
	if all := ids(rs.appendAll(nil)); len(all) != 3 || all[0] != 1 || all[1] != 2 || all[2] != 3 {
		t.Fatalf("appendAll = %v (must be sorted)", all)
	}
	rs.remove(rate.Mbps(5), e1, &pool)
	if e3.bucket == nil || e3.bucket.members[e3.pos] != e3 {
		t.Fatalf("swap-remove lost track of the moved member")
	}
	rs.remove(rate.Mbps(5), e3, &pool)
	if rs.countAt(rate.Mbps(5)) != 0 || rs.distinct() != 1 {
		t.Fatalf("bucket not collapsed")
	}
	if e1.bucket != nil || e3.bucket != nil {
		t.Fatalf("removed members still point at a bucket")
	}
}

// TestRateSetRemovePanics pins the two messages of a remove that finds
// nothing to remove — no bucket holds the rate at all, or one does and the
// entry is not in it — and that the set is untouched when either fires.
// remove reaches the bucket through the entry, so each shape of a stale or
// foreign entry is spelled out.
func TestRateSetRemovePanics(t *testing.T) {
	const absentRate, absentSession = "core: rateSet.remove of absent rate", "core: rateSet.remove of absent session"
	mustPanic := func(t *testing.T, want string, rs *rateSet, f func()) {
		t.Helper()
		size, distinct := rs.len(), rs.distinct()
		defer func() {
			t.Helper()
			if got := recover(); got != want {
				t.Fatalf("panic %v, want %q", got, want)
			}
			if rs.len() != size || rs.distinct() != distinct {
				t.Fatalf("the failed remove changed the set: %d/%d → %d/%d", size, distinct, rs.len(), rs.distinct())
			}
		}()
		f()
	}
	t.Run("absent rate", func(t *testing.T) {
		var rs rateSet
		var pool bucketPool
		mustPanic(t, absentRate, &rs, func() { rs.remove(rate.Mbps(1), &tableEntry{id: 1}, &pool) })
	})
	t.Run("absent rate, filed elsewhere", func(t *testing.T) {
		var rs rateSet
		var pool bucketPool
		e := &tableEntry{id: 1}
		rs.add(rate.Mbps(1), e, &pool)
		mustPanic(t, absentRate, &rs, func() { rs.remove(rate.Mbps(3), e, &pool) })
	})
	t.Run("absent session", func(t *testing.T) {
		var rs rateSet
		var pool bucketPool
		rs.add(rate.Mbps(1), &tableEntry{id: 1}, &pool)
		mustPanic(t, absentSession, &rs, func() { rs.remove(rate.Mbps(1), &tableEntry{id: 2}, &pool) })
	})
	t.Run("session at another rate", func(t *testing.T) {
		var rs rateSet
		var pool bucketPool
		e := &tableEntry{id: 1}
		rs.add(rate.Mbps(1), e, &pool)
		rs.add(rate.Mbps(2), &tableEntry{id: 2}, &pool)
		mustPanic(t, absentSession, &rs, func() { rs.remove(rate.Mbps(2), e, &pool) })
	})
	t.Run("session of another set, rate present", func(t *testing.T) {
		var rs, other rateSet
		var pool bucketPool
		e := &tableEntry{id: 1}
		other.add(rate.Mbps(1), e, &pool)
		rs.add(rate.Mbps(1), &tableEntry{id: 2}, &pool)
		mustPanic(t, absentSession, &rs, func() { rs.remove(rate.Mbps(1), e, &pool) })
		if e.bucket == nil || other.len() != 1 {
			t.Fatalf("the failed remove disturbed the set the entry is in")
		}
	})
	t.Run("session of another set, rate absent", func(t *testing.T) {
		var rs, other rateSet
		var pool bucketPool
		e := &tableEntry{id: 1}
		other.add(rate.Mbps(1), e, &pool)
		mustPanic(t, absentRate, &rs, func() { rs.remove(rate.Mbps(1), e, &pool) })
	})
	t.Run("double add", func(t *testing.T) {
		var rs rateSet
		var pool bucketPool
		e := &tableEntry{id: 1}
		rs.add(rate.Mbps(1), e, &pool)
		mustPanic(t, "core: rateSet.add of indexed session", &rs, func() { rs.add(rate.Mbps(2), e, &pool) })
	})
}

// TestRateSetMatchesReference fuzzes against a trivial slice-of-pairs
// reference.
func TestRateSetMatchesReference(t *testing.T) {
	type pair struct {
		r rate.Rate
		s *tableEntry
	}
	r := rand.New(rand.NewSource(41))
	for iter := 0; iter < 50; iter++ {
		var rs rateSet
		var pool bucketPool
		var ref []pair
		for step := 0; step < 500; step++ {
			if len(ref) == 0 || r.Intn(3) > 0 {
				rt := rate.FromFrac(int64(1+r.Intn(20)), int64(1+r.Intn(4)))
				s := &tableEntry{id: SessionID(step)}
				rs.add(rt, s, &pool)
				ref = append(ref, pair{rt, s})
			} else {
				i := r.Intn(len(ref))
				rs.remove(ref[i].r, ref[i].s, &pool)
				ref = append(ref[:i], ref[i+1:]...)
			}
			if rs.len() != len(ref) {
				t.Fatalf("len %d vs %d", rs.len(), len(ref))
			}
			// max
			if len(ref) > 0 {
				want := ref[0].r
				for _, p := range ref[1:] {
					want = rate.Max(want, p.r)
				}
				got, ok := rs.max()
				if !ok || !got.Equal(want) {
					t.Fatalf("max %v vs %v", got, want)
				}
				// countAt / sessionsAt for a random existing rate
				probe := ref[r.Intn(len(ref))].r
				var wantAt []SessionID
				for _, p := range ref {
					if p.r.Equal(probe) {
						wantAt = append(wantAt, p.s.id)
					}
				}
				sort.Slice(wantAt, func(i, j int) bool { return wantAt[i] < wantAt[j] })
				gotAt := ids(rs.appendSessionsAt(nil, probe))
				if len(gotAt) != len(wantAt) {
					t.Fatalf("sessionsAt len %d vs %d", len(gotAt), len(wantAt))
				}
				for i := range gotAt {
					if gotAt[i] != wantAt[i] {
						t.Fatalf("sessionsAt %v vs %v", gotAt, wantAt)
					}
				}
				if rs.countAt(probe) != len(wantAt) {
					t.Fatalf("countAt %d vs %d", rs.countAt(probe), len(wantAt))
				}
				// sessionsAbove for a random threshold
				var wantAbove []SessionID
				for _, p := range ref {
					if p.r.Greater(probe) {
						wantAbove = append(wantAbove, p.s.id)
					}
				}
				sort.Slice(wantAbove, func(i, j int) bool { return wantAbove[i] < wantAbove[j] })
				gotAbove := ids(rs.appendSessionsAbove(nil, probe))
				if len(gotAbove) != len(wantAbove) {
					t.Fatalf("sessionsAbove len %d vs %d", len(gotAbove), len(wantAbove))
				}
				for i := range gotAbove {
					if gotAbove[i] != wantAbove[i] {
						t.Fatalf("sessionsAbove %v vs %v", gotAbove, wantAbove)
					}
				}
			}
			// Buckets stay sorted and non-empty.
			for i := 1; i < len(rs.buckets); i++ {
				if !rs.buckets[i-1].rate.Less(rs.buckets[i].rate) {
					t.Fatalf("buckets unsorted")
				}
			}
			for _, b := range rs.buckets {
				if len(b.members) == 0 {
					t.Fatalf("empty bucket kept")
				}
				for pos, m := range b.members {
					if m.bucket != b || int(m.pos) != pos {
						t.Fatalf("member %d does not point back at its bucket", m.id)
					}
				}
			}
		}
	}
}
