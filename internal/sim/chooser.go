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
// covers. Owner is recorded but no longer read in this module (see
// SendFromTo).
type Choice struct {
	At     Time
	Seq    uint64
	Src    int32 // creator key (ExtCreator for At/After/DaemonAt)
	Owner  int32 // executing node (ExtCreator for global events)
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
// event. With no chooser installed Step takes the historical heap-pop path
// and performs no extra work — the hook is a single nil-check.
//
// SetChooser is the swarm's hook (internal/mc draws every tie-break from a
// seeded rng and records the picks as a replayable trace); production and
// benchmark paths never install one.
func (e *Engine) SetChooser(c Chooser) { e.chooser = c }

// popChosen is the chooser-path replacement for eventQueue.pop: it collects
// the enabled set at the frontier time, asks the chooser to pick, and removes
// the picked event from an arbitrary heap position. It allocates only to grow
// the engine's reusable candidate buffers.
func (e *Engine) popChosen() event {
	t := e.events.minTime()
	cands := e.candBuf[:0]
	idx := e.candIdx[:0]
	// Events at the frontier time form a root-containing subtree of the heap
	// (every ancestor of a frontier event is itself at the frontier), but the
	// chooser path is exploration-only and frontiers are small, so a plain
	// scan keeps this obviously correct. Keep the minimum-sequence event per
	// creator: later same-creator events are not enabled (FIFO).
	for i := range e.events.ev {
		ev := &e.events.ev[i]
		if ev.at != t {
			continue
		}
		found := false
		for j := range cands {
			if cands[j].Src == ev.src {
				found = true
				if ev.seq < cands[j].Seq {
					cands[j] = Choice{At: ev.at, Seq: ev.seq, Src: ev.src, Owner: ev.owner, Daemon: ev.daemon}
					idx[j] = i
				}
				break
			}
		}
		if !found {
			cands = append(cands, Choice{At: ev.at, Seq: ev.seq, Src: ev.src, Owner: ev.owner, Daemon: ev.daemon})
			idx = append(idx, i)
		}
	}
	e.candBuf, e.candIdx = cands, idx
	if len(cands) == 1 {
		return e.events.pop()
	}
	// Sort by creator so index 0 is the default heap order; a pick of 0 at
	// every step is byte-identical to running without a chooser.
	sort.Sort(&candSorter{cands, idx})
	k := e.chooser.Choose(t, cands)
	if k < 0 || k >= len(cands) {
		k = 0
	}
	return e.events.removeAt(idx[k])
}

// candSorter sorts the candidate slice and its parallel heap-index slice by
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
