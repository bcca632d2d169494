package core

import (
	"math/rand"
	"testing"

	"bneck/internal/rate"
)

// newTable returns an empty table of capacity c, the way RouterLink embeds
// one.
func newTable(c rate.Rate) *table { return &table{capacity: c} }

// ids returns the session IDs of a snapshot, in snapshot order.
func ids(ents []*tableEntry) []SessionID {
	out := make([]SessionID, len(ents))
	for i, ent := range ents {
		out[i] = ent.id
	}
	return out
}

// naiveTable is a direct transcription of Figure 2's per-link state: plain
// sets scanned in O(n) for every predicate. The optimized table must be
// observationally equivalent under arbitrary operation sequences.
type naiveTable struct {
	capacity rate.Rate
	re       map[SessionID]*naiveEntry
	fe       map[SessionID]*naiveEntry
}

type naiveEntry struct {
	mu        State
	lambda    rate.Rate
	hasLambda bool
}

func newNaiveTable(c rate.Rate) *naiveTable {
	return &naiveTable{
		capacity: c,
		re:       make(map[SessionID]*naiveEntry),
		fe:       make(map[SessionID]*naiveEntry),
	}
}

func (n *naiveTable) be() rate.Rate {
	if len(n.re) == 0 {
		return rate.Inf
	}
	sum := rate.Zero
	for _, e := range n.fe {
		sum = sum.Add(e.lambda)
	}
	return n.capacity.Sub(sum).DivInt(len(n.re))
}

func (n *naiveTable) allReIdleAtBe() bool {
	if len(n.re) == 0 {
		return false
	}
	be := n.be()
	for _, e := range n.re {
		if e.mu != Idle || !e.hasLambda || !e.lambda.Equal(be) {
			return false
		}
	}
	return true
}

func (n *naiveTable) feMax() (rate.Rate, bool) {
	var max rate.Rate
	found := false
	for _, e := range n.fe {
		if !found || e.lambda.Greater(max) {
			max = e.lambda
			found = true
		}
	}
	return max, found
}

func (n *naiveTable) idleAt(r rate.Rate) map[SessionID]bool {
	out := make(map[SessionID]bool)
	for s, e := range n.re {
		if e.mu == Idle && e.hasLambda && e.lambda.Equal(r) {
			out[s] = true
		}
	}
	return out
}

func (n *naiveTable) idleAbove(r rate.Rate) map[SessionID]bool {
	out := make(map[SessionID]bool)
	for s, e := range n.re {
		if e.mu == Idle && e.hasLambda && e.lambda.Greater(r) {
			out[s] = true
		}
	}
	return out
}

// TestTableMatchesNaive drives both implementations through long random
// operation sequences and compares every observable after every step.
func TestTableMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for iter := 0; iter < 100; iter++ {
		cap := rate.FromInt64(int64(10+r.Intn(1000)) * 1_000_000)
		opt := newTable(cap)
		ref := newNaiveTable(cap)
		var known []SessionID
		nextID := SessionID(1)

		randRate := func() rate.Rate {
			return rate.FromFrac(int64(1+r.Intn(100))*1_000_000, int64(1+r.Intn(7)))
		}
		pick := func() (SessionID, *tableEntry) {
			if len(known) == 0 {
				return 0, nil
			}
			s := known[r.Intn(len(known))]
			return s, opt.get(s)
		}

		for step := 0; step < 400; step++ {
			switch r.Intn(10) {
			case 0, 1: // addNew
				s := nextID
				nextID++
				opt.addNew(s, 1)
				ref.re[s] = &naiveEntry{mu: WaitingResponse}
				known = append(known, s)
			case 2: // remove
				if s, ent := pick(); ent != nil {
					opt.remove(s)
					delete(ref.re, s)
					delete(ref.fe, s)
					for i, k := range known {
						if k == s {
							known = append(known[:i], known[i+1:]...)
							break
						}
					}
				}
			case 3, 4: // setIdle with a rate (must be in Re)
				if s, ent := pick(); ent != nil && ent.inRe {
					lam := randRate()
					opt.setIdle(ent, lam)
					ref.re[s].mu = Idle
					ref.re[s].lambda = lam
					ref.re[s].hasLambda = true
				}
			case 5: // setState to WaitingProbe
				if s, ent := pick(); ent != nil && ent.mu != WaitingProbe {
					opt.setState(ent, WaitingProbe)
					if e, ok := ref.re[s]; ok {
						e.mu = WaitingProbe
					} else {
						ref.fe[s].mu = WaitingProbe
					}
				}
			case 6: // setState to WaitingResponse
				if s, ent := pick(); ent != nil && ent.mu != WaitingResponse {
					opt.setState(ent, WaitingResponse)
					if e, ok := ref.re[s]; ok {
						e.mu = WaitingResponse
					} else {
						ref.fe[s].mu = WaitingResponse
					}
				}
			case 7: // moveReToFe (requires Re + Idle + λ < Be, as the protocol does)
				if s, ent := pick(); ent != nil && ent.inRe && ent.mu == Idle && ent.lambda.Less(opt.be()) {
					opt.moveReToFe(ent)
					ref.fe[s] = ref.re[s]
					delete(ref.re, s)
				}
			case 8, 9: // moveFeToRe
				if s, ent := pick(); ent != nil && !ent.inRe {
					opt.moveFeToRe(ent)
					ref.re[s] = ref.fe[s]
					delete(ref.fe, s)
				}
			}

			// Compare all observables.
			if err := opt.checkInvariants(); err != nil {
				t.Fatalf("iter %d step %d: invariants: %v", iter, step, err)
			}
			if !opt.be().Equal(ref.be()) {
				t.Fatalf("iter %d step %d: be %v vs naive %v", iter, step, opt.be(), ref.be())
			}
			if opt.allReIdleAtBe() != ref.allReIdleAtBe() {
				t.Fatalf("iter %d step %d: allReIdleAtBe %t vs naive %t",
					iter, step, opt.allReIdleAtBe(), ref.allReIdleAtBe())
			}
			om, ook := opt.feMax()
			nm, nok := ref.feMax()
			if ook != nok || (ook && !om.Equal(nm)) {
				t.Fatalf("iter %d step %d: feMax (%v,%t) vs naive (%v,%t)",
					iter, step, om, ook, nm, nok)
			}
			be := opt.be()
			if !be.IsInf() {
				wantAt := ref.idleAt(be)
				gotAt := ids(opt.appendIdleAt(nil, be))
				if len(gotAt) != len(wantAt) {
					t.Fatalf("iter %d step %d: idleAt size %d vs %d", iter, step, len(gotAt), len(wantAt))
				}
				for _, s := range gotAt {
					if !wantAt[s] {
						t.Fatalf("iter %d step %d: idleAt extra session %d", iter, step, s)
					}
				}
				wantAbove := ref.idleAbove(be)
				gotAbove := ids(opt.appendIdleAbove(nil, be))
				if len(gotAbove) != len(wantAbove) {
					t.Fatalf("iter %d step %d: idleAbove size %d vs %d", iter, step, len(gotAbove), len(wantAbove))
				}
				for _, s := range gotAbove {
					if !wantAbove[s] {
						t.Fatalf("iter %d step %d: idleAbove extra session %d", iter, step, s)
					}
				}
			}
			if opt.sessions() != len(ref.re)+len(ref.fe) {
				t.Fatalf("iter %d step %d: sessions %d vs %d",
					iter, step, opt.sessions(), len(ref.re)+len(ref.fe))
			}
		}
	}
}

func TestTablePanicsOnMisuse(t *testing.T) {
	for name, fn := range map[string]func(tb *table){
		"addNew duplicate": func(tb *table) {
			tb.addNew(1, 1)
			tb.addNew(1, 1)
		},
		"setIdle on Fe": func(tb *table) {
			ent := tb.addNew(1, 1)
			tb.setIdle(ent, rate.Mbps(1))
			tb.moveReToFe(ent)
			tb.setIdle(ent, rate.Mbps(2))
		},
		"setState to Idle": func(tb *table) {
			ent := tb.addNew(1, 1)
			tb.setState(ent, Idle)
		},
		"moveReToFe non-idle": func(tb *table) {
			ent := tb.addNew(1, 1)
			tb.moveReToFe(ent)
		},
		"moveFeToRe on Re": func(tb *table) {
			ent := tb.addNew(1, 1)
			tb.moveFeToRe(ent)
		},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			fn(newTable(rate.Mbps(10)))
		})
	}
}

func TestTableBeCaching(t *testing.T) {
	tb := newTable(rate.Mbps(12))
	e1 := tb.addNew(1, 1)
	e2 := tb.addNew(2, 1)
	if !tb.be().Equal(rate.Mbps(6)) {
		t.Fatalf("be = %v", tb.be())
	}
	// Cached value must be invalidated by structural changes.
	tb.setIdle(e1, rate.Mbps(2))
	tb.moveReToFe(e1)
	if !tb.be().Equal(rate.Mbps(10)) {
		t.Fatalf("be after moveReToFe = %v", tb.be())
	}
	tb.remove(2)
	_ = e2
	if !tb.be().IsInf() {
		t.Fatalf("be with empty Re = %v", tb.be())
	}
}

func TestRemoveUnknownIsNoop(t *testing.T) {
	tb := newTable(rate.Mbps(10))
	tb.remove(42) // must not panic
	if tb.sessions() != 0 {
		t.Fatalf("sessions = %d", tb.sessions())
	}
}
