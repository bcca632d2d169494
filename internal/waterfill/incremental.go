package waterfill

import "bneck/internal/rate"

// Incremental keeps a live instance under a stream of deltas and re-solves
// it in full on Flush. It is what remains of the delta-driven solver, which
// cost more than a full solve once Solver became a lazy heap; a layer probe
// outside this module still drives it through these seven identifiers.
//
// Deprecated: build the instance with an Assembler and call Solve.
type Incremental struct {
	caps     []rate.Rate
	sessions []Session   // by handle; a nil Path once the session has left
	rates    []rate.Rate // by handle, as of the last Flush
	stale    bool
	asm      Assembler[int]
}

// NewIncremental returns an empty live instance.
func NewIncremental() *Incremental {
	inc := &Incremental{}
	inc.asm.Capacity = func(l int) rate.Rate { return inc.caps[l] }
	return inc
}

// AddLink adds a link with the given capacity and returns its handle.
func (inc *Incremental) AddLink(c rate.Rate) int {
	inc.caps = append(inc.caps, c)
	return len(inc.caps) - 1
}

// SetCapacity changes a link's capacity from the next Flush on.
func (inc *Incremental) SetCapacity(link int, c rate.Rate) { inc.caps[link], inc.stale = c, true }

// SessionJoin adds a session over the given links and returns its handle.
func (inc *Incremental) SessionJoin(demand rate.Rate, path []int) int {
	inc.sessions = append(inc.sessions, Session{demand, append([]int(nil), path...)})
	inc.stale = true
	return len(inc.sessions) - 1
}

// SessionLeave removes a session.
func (inc *Incremental) SessionLeave(h int) { inc.sessions[h].Path, inc.stale = nil, true }

// Flush solves the live sessions if anything changed since the last Flush.
func (inc *Incremental) Flush() error {
	if !inc.stale {
		return nil
	}
	inc.asm.Reset()
	for _, s := range inc.sessions {
		if s.Path != nil {
			inc.asm.Add(s.Demand, s.Path)
		}
	}
	rates, err := inc.asm.Solve()
	if err != nil {
		return err
	}
	inc.rates, inc.stale = grow(inc.rates, len(inc.sessions)), false
	for h, s := range inc.sessions {
		if s.Path != nil {
			inc.rates[h], rates = rates[0], rates[1:]
		}
	}
	return nil
}

// Rate flushes and returns a live session's max-min fair rate; it panics if
// the flush fails.
func (inc *Incremental) Rate(h int) rate.Rate {
	if err := inc.Flush(); err != nil {
		panic(err)
	}
	return inc.rates[h]
}
