package sim

import (
	"fmt"
	"math/bits"
)

// event is one scheduled callback, stored by value inside the queue and
// ordered by (at, key). The key packs the rest of the order into one word,
// (creator+1)<<40 | seq<<1 | daemon, where seq counts the engine's
// schedulings. ExtCreator packs as 0, so external events precede every
// node's at the same instant; no two events share a seq, so keys are unique
// and one unsigned compare gives the (creator, seq) order.
type event struct {
	at  Time
	key uint64
	fn  func()
}

const (
	seqBits    = 39
	maxCreator = 1<<(64-seqBits-1) - 1 // creator+1 fills the top 24 bits
)

// eventKey packs a key. It panics if seq does not fit; SendFrom checks the
// creator.
func eventKey(creator int32, seq uint64, daemon bool) uint64 {
	if seq >= 1<<seqBits {
		panic(seqOverflow{})
	}
	k := uint64(creator+1)<<(seqBits+1) | seq<<1
	if daemon {
		k |= 1
	}
	return k
}

// seqOverflow is eventKey's panic value. Its message is formatted out of
// line, in Error, so that eventKey inlines.
type seqOverflow struct{}

func (seqOverflow) Error() string {
	return fmt.Sprintf("sim: the engine scheduled 2^%d events", seqBits)
}

// eventQueue is a radix heap over virtual time (Ahuja, Mehlhorn, Orlin and
// Tarjan, JACM 1990). Every queued event is at or after last, the time of
// the latest refill, and waits in bucket bits.Len64(at ^ last). Bucket 0
// holds the events at last itself, the current instant, as a binary
// min-heap on key; the others are unordered. Times are never negative, so
// 64 buckets suffice. A pop that finds bucket 0 empty refills it: last moves
// to the earliest time in the lowest non-empty bucket, whose events then all
// land in lower buckets, so an event moves at most 63 times in its life.
type eventQueue struct {
	last Time
	n    int
	mask uint64 // bit i set iff bucket i ≥ 1 is non-empty
	b    [64][]event
}

func (q *eventQueue) len() int { return q.n }

// push queues ev, which must not precede the latest pop.
func (q *eventQueue) push(ev event) {
	q.n++
	if ev.at == q.last {
		q.b[0] = append(q.b[0], ev)
		q.up(len(q.b[0]) - 1)
		return
	}
	i := bits.Len64(uint64(ev.at ^ q.last))
	q.b[i] = append(q.b[i], ev)
	q.mask |= 1 << i
}

// minTime returns the earliest queued time. It must not refill: RunUntil
// may stop short of that time, and last moved past the clock would misfile
// a later push that falls between them.
func (q *eventQueue) minTime() Time {
	if len(q.b[0]) > 0 {
		return q.last
	}
	return minAt(q.b[bits.TrailingZeros64(q.mask)])
}

// pop removes and returns the root of bucket 0, the first event in (time,
// key) order, refilling the bucket first if it is empty.
func (q *eventQueue) pop() event {
	if len(q.b[0]) == 0 {
		q.refill()
	}
	h := q.b[0]
	out, n := h[0], len(h)-1
	h[0], h[n] = h[n], event{} // release the closure
	q.b[0] = h[:n]
	q.n--
	if n > 0 {
		q.down(0)
	}
	return out
}

// refill moves the lowest non-empty bucket down: last becomes its earliest
// time, and its events land in lower buckets, those at last in bucket 0.
func (q *eventQueue) refill() {
	i := bits.TrailingZeros64(q.mask)
	src := q.b[i]
	q.last = minAt(src)
	for _, ev := range src { // moved, not pushed: the keys stay as given
		j := bits.Len64(uint64(ev.at ^ q.last))
		q.b[j] = append(q.b[j], ev)
		q.mask |= 1 << j
	}
	clear(src) // release the closures
	q.b[i] = src[:0]
	q.mask &^= 1<<i | 1
	for j := len(q.b[0])/2 - 1; j >= 0; j-- {
		q.down(j)
	}
}

func minAt(evs []event) Time {
	m := evs[0].at
	for _, ev := range evs[1:] {
		m = min(m, ev.at)
	}
	return m
}

// up and down sift slot j of the bucket-0 heap.
func (q *eventQueue) up(j int) {
	h := q.b[0]
	ev := h[j]
	for ; j > 0 && ev.key < h[(j-1)/2].key; j = (j - 1) / 2 {
		h[j] = h[(j-1)/2]
	}
	h[j] = ev
}

func (q *eventQueue) down(j int) {
	h := q.b[0]
	ev, i := h[j], j
	for c := 2*i + 1; c < len(h); c = 2*i + 1 {
		if c+1 < len(h) && h[c+1].key < h[c].key {
			c++
		}
		if ev.key <= h[c].key {
			break
		}
		h[i], i = h[c], c
	}
	h[i] = ev
}
