package sim

import (
	"fmt"
	"testing"
	"time"
)

// pickChooser picks a fixed candidate index at every consulted step.
type pickChooser struct {
	k     int
	calls int
}

func (p *pickChooser) Choose(now Time, cands []Choice) int {
	p.calls++
	return p.k
}

// scriptChooser replays a fixed pick sequence, 0 beyond the end.
type scriptChooser struct {
	picks []int
	pos   int
}

func (s *scriptChooser) Choose(now Time, cands []Choice) int {
	if s.pos >= len(s.picks) {
		return 0
	}
	k := s.picks[s.pos]
	s.pos++
	return k
}

// TestTieBreakSeqOrder pins the contract the Chooser hook must preserve:
// same-(time,creator) events run in scheduling (sequence) order on the
// engine with and without a chooser installed — the chooser only ever
// permutes across creators.
func TestTieBreakSeqOrder(t *testing.T) {
	const at = 50 * time.Microsecond
	cases := []struct {
		name     string
		creators []int32 // scheduling order of (creator) at one instant
		want     []string
	}{
		{
			name:     "single creator preserves seq order",
			creators: []int32{2, 2, 2, 2},
			want:     []string{"2/0", "2/1", "2/2", "2/3"},
		},
		{
			name:     "creators sort before seq",
			creators: []int32{3, 1, 3, 1},
			want:     []string{"1/1", "1/3", "3/0", "3/2"},
		},
		{
			name:     "external events precede node creators",
			creators: []int32{2, ExtCreator, 0, ExtCreator},
			want:     []string{"-1/1", "-1/3", "0/2", "2/0"},
		},
		{
			name:     "interleaved creators",
			creators: []int32{1, 0, 2, 0, 1, 2},
			want:     []string{"0/1", "0/3", "1/0", "1/4", "2/2", "2/5"},
		},
	}

	run := func(t *testing.T, creators []int32, chooser Chooser, want []string) {
		t.Helper()
		var log []string
		e := New()
		e.SetChooser(chooser)
		for i, c := range creators {
			i, c := i, c
			rec := func() { log = append(log, fmt.Sprintf("%d/%d", c, i)) }
			if c == ExtCreator {
				e.At(at, rec)
			} else {
				e.SendFrom(c, at, rec)
			}
		}
		e.Run()
		if len(log) != len(want) {
			t.Fatalf("executed %d events, want %d: %v", len(log), len(want), log)
		}
		for i := range want {
			if log[i] != want[i] {
				t.Fatalf("execution order %v, want %v", log, want)
			}
		}
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("classic", func(t *testing.T) { run(t, tc.creators, nil, tc.want) })
			t.Run("classic+chooser0", func(t *testing.T) { run(t, tc.creators, &pickChooser{k: 0}, tc.want) })
		})
	}
}

// TestChooserEnabledSet pins what the chooser is shown: one candidate per
// creator (the minimum-sequence one), sorted by creator, daemons included,
// and no consultation when only one event is enabled.
func TestChooserEnabledSet(t *testing.T) {
	e := New()
	var seen [][]Choice
	e.SetChooser(chooserFunc(func(now Time, cands []Choice) int {
		cp := make([]Choice, len(cands))
		copy(cp, cands)
		seen = append(seen, cp)
		return 0
	}))
	at := 10 * time.Microsecond
	e.SendFrom(2, at, func() {})
	e.SendFrom(0, at, func() {})
	e.SendFrom(2, at, func() {}) // same creator: shadowed by its seq-1 event
	e.At(at, func() {})
	e.SendFrom(1, 2*at, func() {}) // later time: not enabled at the frontier
	e.Run()

	if len(seen) == 0 {
		t.Fatal("chooser never consulted")
	}
	first := seen[0]
	wantSrc := []int32{ExtCreator, 0, 2}
	if len(first) != len(wantSrc) {
		t.Fatalf("first enabled set has %d candidates (%v), want %d", len(first), first, len(wantSrc))
	}
	for i, c := range first {
		if c.Src != wantSrc[i] {
			t.Fatalf("candidate %d has creator %d, want %d (set %v)", i, c.Src, wantSrc[i], c)
		}
		if c.At != at {
			t.Fatalf("candidate %d at %v, want %v", i, c.At, at)
		}
	}
	if first[2].Seq != 1 {
		t.Fatalf("creator 2 candidate has seq %d, want its first scheduling (1)", first[2].Seq)
	}
	for _, set := range seen {
		if len(set) < 2 {
			t.Fatalf("chooser consulted with singleton enabled set %v", set)
		}
	}
}

type chooserFunc func(Time, []Choice) int

func (f chooserFunc) Choose(now Time, cands []Choice) int { return f(now, cands) }

// TestChooserPermutesAcrossCreators drives the same workload with every
// constant pick and checks each run executes all events exactly once with
// per-creator order intact — the removeAt path must keep the heap sound
// whichever enabled event is extracted.
func TestChooserPermutesAcrossCreators(t *testing.T) {
	const creators = 4
	const perCreator = 3
	at := 5 * time.Microsecond
	for k := 0; k < creators; k++ {
		var log []string
		e := New()
		e.SetChooser(&pickChooser{k: k})
		for round := 0; round < perCreator; round++ {
			for c := int32(0); c < creators; c++ {
				c, round := c, round
				e.SendFrom(c, at, func() {
					log = append(log, fmt.Sprintf("%d/%d", c, round))
				})
			}
		}
		e.Run()
		if len(log) != creators*perCreator {
			t.Fatalf("pick %d: executed %d events, want %d", k, len(log), creators*perCreator)
		}
		next := map[int32]int{}
		for _, entry := range log {
			var c int32
			var round int
			fmt.Sscanf(entry, "%d/%d", &c, &round)
			if round != next[c] {
				t.Fatalf("pick %d: creator %d ran round %d before round %d (log %v)",
					k, c, round, next[c], log)
			}
			next[c]++
		}
	}
}

// TestChooserDefaultEquivalence runs a protocol-shaped workload (cascading
// cross-node sends with mixed delays) three ways — no chooser, always-pick-0
// chooser, and a chooser installed then removed — and requires byte-identical
// execution logs: the hook must be invisible unless a pick deviates.
func TestChooserDefaultEquivalence(t *testing.T) {
	workload := func(e *Engine, log *[]string) {
		var hop func(node int32, depth int)
		hop = func(node int32, depth int) {
			*log = append(*log, fmt.Sprintf("%d@%v", node, e.Now()))
			if depth == 0 {
				return
			}
			next := (node + 1) % 3
			e.SendFrom(node, e.Now()+time.Microsecond, func() { hop(next, depth-1) })
			if depth%2 == 0 {
				e.SendFrom(node, e.Now()+time.Microsecond, func() { hop((node+2)%3, depth-1) })
			}
		}
		for n := int32(0); n < 3; n++ {
			n := n
			e.At(0, func() { hop(n, 6) })
		}
	}

	runWith := func(mutate func(*Engine)) []string {
		var log []string
		e := New()
		if mutate != nil {
			mutate(e)
		}
		workload(e, &log)
		e.Run()
		return log
	}

	base := runWith(nil)
	zero := runWith(func(e *Engine) { e.SetChooser(&pickChooser{k: 0}) })
	removed := runWith(func(e *Engine) {
		e.SetChooser(&pickChooser{k: 1})
		e.SetChooser(nil)
	})
	if len(base) == 0 {
		t.Fatal("workload executed no events")
	}
	for i := range base {
		if base[i] != zero[i] {
			t.Fatalf("pick-0 chooser diverged at step %d: %q vs %q", i, zero[i], base[i])
		}
		if base[i] != removed[i] {
			t.Fatalf("removed chooser diverged at step %d: %q vs %q", i, removed[i], base[i])
		}
	}
}
