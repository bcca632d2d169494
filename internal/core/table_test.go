package core

import (
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
