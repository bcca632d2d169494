package mc

import (
	"slices"
	"testing"
	"time"

	"bneck/internal/scenario"
)

const churnScript = `router r1
router r2
host h1 r1
host h2 r2
link r1 r2 100mbps 1ms
session s1 h1 h2
session s2 h1 h2
at 0ms join s1
at 0ms join s2 demand=30mbps
at 20ms fail r1 r2
at 40ms restore r1 r2
at 60ms leave s1
at 80ms join s1 demand=10mbps
at 100ms expect rate s1 10mbps
`

func TestFuzzDeterministicAndValid(t *testing.T) {
	m := mustModel(t, churnScript)
	a, err := Fuzz(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fuzz(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Script.Events) != len(b.Script.Events) {
		t.Fatal("fuzz is not deterministic in event count")
	}
	for i := range a.Script.Events {
		if a.Script.Events[i].At != b.Script.Events[i].At {
			t.Fatalf("fuzz is not deterministic: event %d at %v vs %v",
				i, a.Script.Events[i].At, b.Script.Events[i].At)
		}
	}
	if a.FuzzSeed != 3 || a.Hash != m.Hash {
		t.Fatalf("fuzzed model metadata wrong: seed=%d hash=%q", a.FuzzSeed, a.Hash)
	}
	// The perturbed timeline must still pass the static checks and run clean
	// undelayed under the full invariant set.
	if err := a.Script.Recheck(); err != nil {
		t.Fatalf("fuzzed timeline fails recheck: %v", err)
	}
	if _, v := runOnce(a, &holds{}); v != nil {
		t.Fatalf("fuzzed workload violated undelayed: %v", v)
	}
}

func TestFuzzShape(t *testing.T) {
	m := mustModel(t, churnScript)
	f, err := Fuzz(m, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range f.Script.Events {
		switch ev.Op {
		case scenario.OpExpectRate, scenario.OpExpectMigrated,
			scenario.OpExpectStranded, scenario.OpExpectReoptimized:
			t.Fatalf("expect event survived fuzzing at %v", ev.At)
		}
		if ev.At == 0 {
			continue // the t=0 population epoch is pinned
		}
		if ev.At%fuzzGrid != 0 {
			t.Fatalf("event at %v not on the %v grid", ev.At, fuzzGrid)
		}
		if ev.At < fuzzGrid {
			t.Fatalf("perturbed event collapsed into the pinned epoch: %v", ev.At)
		}
	}
	// Some seed in a small range must actually move something — the fuzzer
	// would be useless if it always reproduced the base timeline. Compare
	// against the base script with expects dropped.
	var base []time.Duration
	for _, ev := range m.Script.Events {
		switch ev.Op {
		case scenario.OpExpectRate, scenario.OpExpectMigrated,
			scenario.OpExpectStranded, scenario.OpExpectReoptimized:
		default:
			base = append(base, ev.At)
		}
	}
	moved := false
	for seed := int64(1); seed <= 10 && !moved; seed++ {
		f, err := Fuzz(m, seed)
		if err != nil {
			t.Fatal(err)
		}
		for i, ev := range f.Script.Events {
			if ev.At != base[i] {
				moved = true
				break
			}
		}
	}
	if !moved {
		t.Fatal("no seed in 1..10 perturbed any timestamp")
	}
}

func TestFuzzRejectsZeroSeed(t *testing.T) {
	m := mustModel(t, churnScript)
	if _, err := Fuzz(m, 0); err == nil {
		t.Fatal("zero fuzz seed accepted")
	}
}

func TestFuzzKeepsDurationsSane(t *testing.T) {
	m := mustModel(t, churnScript)
	f, err := Fuzz(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	var last time.Duration
	for _, ev := range f.Script.Events {
		if ev.At < last {
			t.Fatalf("timeline unsorted after fuzz: %v after %v", ev.At, last)
		}
		last = ev.At
	}
}

// blockScript mixes absolute epochs with after blocks: a Fuzz of it may move
// the absolute events, but no event may cross into, out of or between
// blocks, nor move inside one.
const blockScript = `router r1
router r2
router r3
host h1 r1
host h2 r2
link r1 r2 100mbps 1ms
link r1 r3 100mbps 1ms
link r3 r2 100mbps 1ms
session s1 h1 h2
session s2 h1 h2
at 0ms join s1
at 20ms join s2 demand=30mbps
at 40ms change s1 demand=50mbps
after 5ms {
  at 0ms fail in-use pick=0
  at 1ms leave s2
}
after 5ms {
  at 0ms restore failed
  at 2ms join s2
  at 3ms expect stranded 0
}
`

func TestFuzzKeepsBlocks(t *testing.T) {
	m := mustModel(t, blockScript)
	type placed struct {
		block int
		at    time.Duration
		line  int
	}
	blocked := func(sc *scenario.Script) (out []placed) {
		for i, ev := range sc.Events {
			if i > 0 && sc.Events[i-1].Block > ev.Block {
				t.Fatalf("event on line %d (block %d) sorts after block %d", ev.Line, ev.Block, sc.Events[i-1].Block)
			}
			if ev.Block > 0 && ev.Op != scenario.OpExpectStranded {
				out = append(out, placed{ev.Block, ev.At, ev.Line})
			}
		}
		return out
	}
	want := blocked(m.Script)
	moved := false
	for seed := int64(1); seed <= 40; seed++ {
		f, err := Fuzz(m, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := blocked(f.Script); !slices.Equal(got, want) {
			t.Fatalf("seed %d moved block events: %v, want %v", seed, got, want)
		}
		for i, ev := range f.Script.Events {
			moved = moved || ev.Block == 0 && ev.At != m.Script.Events[i].At
		}
		if _, v := runOnce(f, &holds{}); v != nil {
			t.Fatalf("seed %d: fuzzed block workload violated undelayed: %v", seed, v)
		}
	}
	if !moved {
		t.Fatal("no seed perturbed an absolute event")
	}
}
