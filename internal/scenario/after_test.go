package scenario

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// diamond is two disjoint two-hop router routes between ha and hb; every
// script below appends its timeline to it.
const diamond = `router r1
router r2
router r3
router r4
link r1 r2 40mbps 1us
link r2 r4 40mbps 1us
link r1 r3 25mbps 1us
link r3 r4 25mbps 1us
host ha r1
host hb r4
session s1 ha hb
session s2 ha hb
`

// churnBlocks uses every new form: after blocks, both in-use selectors and
// `restore failed`.
const churnBlocks = diamond + `at 0ms join s1
at 0ms join s2 demand=8mbps
after 1ms {
  at 0s   fail in-use pick=0
  at 10us set-capacity in-use pick=1 div=2
  at 20us change s2 demand=unlimited
}
after 2ms {
  at 0s   restore failed
  at 0s   expect migrated 2
  at 0s   expect stranded 0
}
`

func TestParseAfterBlocks(t *testing.T) {
	sc, err := Parse(churnBlocks)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range sc.Events {
		got = append(got, fmt.Sprintf("%v/%v/%d/%v", ev.Op, ev.At, ev.Block, ev.After))
	}
	want := []string{
		"join/0s/0/0s", "join/0s/0/0s",
		"fail/0s/1/1ms", "set-capacity/10µs/1/1ms", "change/20µs/1/1ms",
		"restore/0s/2/2ms", "expect migrated/0s/2/2ms", "expect stranded/0s/2/2ms",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("events\n%v\nwant\n%v", got, want)
	}
	if ev := sc.Events[3]; !ev.Selected || ev.Pick != 1 || ev.Div != 2 {
		t.Fatalf("set-capacity selector = %+v", ev)
	}
}

// TestAfterBlocksBothTransports runs every new form on both transports: each
// epoch validates, the selectors resolve to the links the paths cross, the
// per-epoch packets sum to the run's total, and the live runtime counts them
// too.
func TestAfterBlocksBothTransports(t *testing.T) {
	sc, err := Parse(churnBlocks)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []func(*Script) (*Result, error){RunSim, RunLive} {
		res, err := run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Epochs) != 3 {
			t.Fatalf("%s: %d epochs, want 3", res.Transport, len(res.Epochs))
		}
		var sum uint64
		for i, ep := range res.Epochs {
			// The pinned restore moves nobody, so it costs nothing.
			if ep.Packets == 0 && i < 2 {
				t.Fatalf("%s: epoch %v counted no packets", res.Transport, ep.At)
			}
			sum += ep.Packets
		}
		if sum != res.TotalPackets {
			t.Fatalf("%s: epochs sum to %d packets, total %d", res.Transport, sum, res.TotalPackets)
		}
		got := strings.Join(append(res.Epochs[1].Events, res.Epochs[2].Events[0]), ", ")
		if want := "fail r1-r2, set-capacity r2-r4 20000000, change s2, restore r1-r2"; got != want {
			t.Fatalf("%s: resolved events %q, want %q", res.Transport, got, want)
		}
		if last := res.Epochs[2]; last.Migrations != 2 || last.Reoptimizations != 0 {
			t.Fatalf("%s: counters after the last epoch: %+v", res.Transport, last)
		}
	}
	// On the simulator a block starts its delay after the previous epoch
	// quiesced, and its events fire at their offsets from there.
	res, _ := RunSim(sc)
	if ep := res.Epochs[1]; ep.At != res.Epochs[0].Quiescence+time.Millisecond || ep.Applied != ep.At {
		t.Fatalf("block 1 at %v (applied %v), want 1ms after %v", ep.At, ep.Applied, res.Epochs[0].Quiescence)
	}
}

// TestEpochPacketsSumToTotal is the live packet count's regression test: on
// both transports, a script without blocks counts every epoch's packets,
// and they sum to the total.
func TestEpochPacketsSumToTotal(t *testing.T) {
	sc, err := Parse(handScript)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []func(*Script) (*Result, error){RunSim, RunLive} {
		res, err := run(sc)
		if err != nil {
			t.Fatal(err)
		}
		var sum uint64
		for _, ep := range res.Epochs {
			sum += ep.Packets
		}
		if sum != res.TotalPackets || res.Epochs[0].Packets == 0 {
			t.Fatalf("%s: epochs sum to %d packets (first %d), total %d",
				res.Transport, sum, res.Epochs[0].Packets, res.TotalPackets)
		}
	}
}

// blockParseErrors are the static rejections of the new forms; each names
// its line. FuzzParse seeds them all.
var blockParseErrors = []struct {
	name, src, want string
}{
	{"restoreFailedNothingOutstanding", diamond + "at 0ms join s1\nafter 1ms {\nat 0s restore failed\n}\n", "line 15: restore failed with no selector-failed link outstanding"},
	{"negativePick", diamond + "at 1ms fail in-use pick=-1\n", "line 13: malformed option \"pick=-1\""},
	{"zeroDiv", diamond + "at 1ms set-capacity in-use pick=0 div=0\n", "line 13: malformed option \"div=0\""},
	{"nestedBlock", diamond + "after 1ms {\nafter 1ms {\nat 0s join s1\n}\n}\n", "line 14: only `at` events may appear inside a block"},
	{"blockInRepeat", diamond + "repeat 2 {\nafter 1ms {\n}\n}\n", "line 14: only `at` events may appear inside a block"},
	{"absoluteAfterBlock", diamond + "after 1ms {\nat 0s join s1\n}\nat 5ms leave s1\n", "line 16: absolute `at` after an after block"},
	{"repeatAfterBlock", diamond + "after 1ms {\nat 0s join s1\n}\nrepeat 2 {\nat 1ms leave s1\n}\n", "line 16: repeat after an after block"},
	{"emptyBlock", diamond + "after 1ms {\n}\n", "line 13: block is empty"},
	{"unclosedBlock", diamond + "after 1ms {\nat 0s join s1\n", "line 13: block never closed"},
	{"badDelay", diamond + "after soon {\n", "line 13: malformed duration"},
}

func TestBlockParseErrors(t *testing.T) {
	for _, c := range blockParseErrors {
		t.Run(c.name, func(t *testing.T) {
			sc, err := Parse(c.src)
			if err == nil || !strings.Contains(err.Error(), c.want) || sc != nil {
				t.Fatalf("Parse = %v, %v; want an error containing %q", sc, err, c.want)
			}
		})
	}
}

// TestSelectorEpochErrors: what the static checks cannot see fails the
// epoch, with the line, on both transports.
func TestSelectorEpochErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		// Nobody has joined, so no path carries a link to pick.
		{"noSession", diamond + "after 1ms {\nat 0s fail in-use pick=0\n}\n", "line 14: fail in-use pick=0: no up router link"},
		// s1 crosses two router links: the third pick finds both taken.
		{"allTaken", diamond + "at 0ms join s1\nafter 1ms {\nat 0s fail in-use pick=0\nat 0s fail in-use pick=1\nat 0s set-capacity in-use pick=0 div=2\n}\n", "line 17: set-capacity in-use pick=0: no up router link"},
		{"namedFailOfSelected", diamond + "at 0ms join s1\nafter 1ms {\nat 0s fail in-use pick=0\n}\nafter 1ms {\nat 0s fail r2 r1\n}\n", "line 18: fail r2-r1: a selector failed that link"},
		{"namedCapacityOfSelected", diamond + "at 0ms join s1\nafter 1ms {\nat 0s fail in-use pick=0\nat 0s set-capacity r1 r2 10mbps\n}\n", "line 16: set-capacity r1-r2: a selector failed that link"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc, err := Parse(c.src)
			if err != nil {
				t.Fatal(err)
			}
			for _, run := range []func(*Script) (*Result, error){RunSim, RunLive} {
				_, err := run(sc)
				var ee *EpochError
				if !errors.As(err, &ee) || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("run = %v; want an EpochError containing %q", err, c.want)
				}
			}
		})
	}
}
