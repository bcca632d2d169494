package sim

import "sort"

// Choice describes one enabled event at the current frontier time: an event
// the engine could legally execute next without violating the per-creator
// FIFO contract. At any instant the enabled set contains, for each creator
// with pending events at that instant, that creator's lowest-sequence event —
// reordering two events of the same creator would reorder a single node's
// scheduling stream (and, through the wire model, packet order on a link),
// which no real execution of the protocol can produce. Cross-creator ties are
// the nondeterminism a run at fixed delays has; the paper's theorems quantify
// over arbitrary delays too, which internal/control's protocol explorer
// covers.
type Choice struct {
	At     Time
	Seq    uint64 // the engine's scheduling count: orders one creator's events
	Src    int32  // creator key (ExtCreator for At/After/DaemonAt)
	Daemon bool
}

// Chooser resolves same-time tie-breaks during exploration. Choose receives
// the enabled set for the frontier time, sorted by creator so that index 0 is
// the event the engine would run by default, and returns the index to execute
// next. Out-of-range returns are clamped. Choose is only consulted when the
// enabled set has two or more members; a Chooser that always returns 0
// reproduces the default (time, creator, creator-seq) order exactly.
//
// The candidate slice is reused between steps: implementations must not
// retain it past the call.
type Chooser interface {
	Choose(now Time, cands []Choice) int
}

// SetChooser installs (or, with nil, removes) a schedule controller. The
// engine consults it on every Step whose frontier has more than one enabled
// event. With no chooser installed Step takes the plain pop path
// and performs no extra work — the hook is a single nil-check.
//
// SetChooser is the swarm's hook (internal/mc draws every tie-break from a
// seeded rng and records the picks as a replayable trace); production and
// benchmark paths never install one.
func (e *Engine) SetChooser(c Chooser) { e.chooser = c }

// popChosen is the chooser-path replacement for eventQueue.pop: it collects
// the enabled set from the frontier bucket — the events at the earliest
// time — asks the chooser to pick, and takes the picked event out of the
// bucket. It allocates only to grow the engine's reusable candidate buffers.
func (e *Engine) popChosen() event {
	front := e.events.front()
	cands := e.candBuf[:0]
	idx := e.candIdx[:0]
	// Keep the minimum-sequence event per creator: later same-creator events
	// are not enabled (FIFO).
	for i, ev := range front {
		c := Choice{At: ev.at, Seq: keySeq(ev.key), Src: keySrc(ev.key), Daemon: ev.key&1 != 0}
		found := false
		for j := range cands {
			if cands[j].Src == c.Src {
				found = true
				if c.Seq < cands[j].Seq {
					cands[j], idx[j] = c, i
				}
				break
			}
		}
		if !found {
			cands = append(cands, c)
			idx = append(idx, i)
		}
	}
	e.candBuf, e.candIdx = cands, idx
	if len(cands) == 1 {
		return e.events.take(0)
	}
	// Sort by creator so index 0 is the default key order; a pick of 0 at
	// every step is byte-identical to running without a chooser.
	sort.Sort(&candSorter{cands, idx})
	k := e.chooser.Choose(front[0].at, cands)
	if k < 0 || k >= len(cands) {
		k = 0
	}
	return e.events.take(idx[k])
}

// candSorter sorts the candidate slice and its parallel bucket-index slice by
// creator. Keys at one instant are unique per creator, so creator order is a
// total order on the enabled set.
type candSorter struct {
	c []Choice
	i []int
}

func (s *candSorter) Len() int           { return len(s.c) }
func (s *candSorter) Less(a, b int) bool { return s.c[a].Src < s.c[b].Src }
func (s *candSorter) Swap(a, b int) {
	s.c[a], s.c[b] = s.c[b], s.c[a]
	s.i[a], s.i[b] = s.i[b], s.i[a]
}
