package scenario

import (
	"strings"
	"testing"
)

// FuzzParse throws arbitrary scripts at the parser: it must never panic, and
// whatever it accepts must survive the static timeline replay and — for
// cheap hand-built topologies — instantiation. Seeds cover the documented
// grammar plus the malformed shapes the parser guards against (bad
// timestamps, unknown nodes, events on failed links), after blocks and link
// selectors, and every rejection of those.
func FuzzParse(f *testing.F) {
	f.Add(handScript)
	f.Add("topology transit-stub small lan seed=7 hosts=4\nsession s h0 h1\nat 0s join s\n")
	f.Add("topology internet paper seed=3 hosts=4\nsession s h0 h1\nat 0s join s demand=10mbps\n")
	f.Add("topology internet warp\n")
	f.Add("router r1\nrouter r2\nlink r1 r2 10mbps 1us\nat 1ms fail r1 r2\nat 2ms restore r1 r2\n")
	f.Add("at 99h join ghost\n")
	f.Add("at zzz join s\n")
	f.Add("at -1s fail a b\n")
	f.Add("router r1\nhost h1 r1\nhost h2 r1\nsession s h1 h2\nat 0s join s demand=0mbps\n")
	f.Add("router r1\nrouter r2\nlink r1 r2 10mbps 1us\nat 0s fail r1 r2\nat 1s set-capacity r1 r2 5mbps\n")
	f.Add("router r1\nrouter r2\nlink r1 r2 10mbps 1us\nat 0s fail r1 r2\nat 1s fail r1 r2\n")
	f.Add("topology transit-stub big wan hosts=100000000\n")
	f.Add("host h1 nowhere\n")
	f.Add("session s h h\n")
	f.Add("at 1ms set-capacity r1 r2 unlimited\n")
	f.Add("# empty\n\n\n")
	f.Add(strings.Repeat("router r\n", 2))
	f.Add(repeatScript)
	f.Add("router r1\nrouter r2\nlink r1 r2 10mbps 1us\nrepeat 3 {\nat 1ms fail r1 r2\nat 2ms restore r1 r2\n}\nat 7ms expect migrated 0\nat 7ms expect stranded 0\n")
	f.Add("repeat 2 {\n")
	f.Add("}\n")
	f.Add("repeat 999999999 {\nat 1ms expect stranded 0\n}\n")
	f.Add("repeat 9223372036854775807 {\nat 1ns fail r1 r2\nat 2ns restore r1 r2\n}\n")
	f.Add("at 1ms expect migrated -5\n")
	f.Add(churnBlocks)
	for _, c := range blockParseErrors {
		f.Add(c.src)
	}

	f.Fuzz(func(t *testing.T, src string) {
		sc, err := Parse(src)
		if err != nil {
			if sc != nil {
				t.Fatal("Parse returned both a script and an error")
			}
			return
		}
		// Accepted scripts must be internally consistent.
		for i := 1; i < len(sc.Events); i++ {
			a, b := sc.Events[i-1], sc.Events[i]
			if a.Block > b.Block || a.Block == b.Block && a.At > b.At {
				t.Fatalf("events not sorted: block %d at %v before block %d at %v", a.Block, a.At, b.Block, b.At)
			}
		}
		if err := sc.checkTimeline(); err != nil {
			t.Fatalf("accepted script fails its own timeline check: %v", err)
		}
		// Hand-built topologies are bounded by the input size: instantiating
		// them must either error cleanly or produce a valid graph. (Generated
		// topologies are skipped: a fuzz case should not pay for an 11,000
		// router build.)
		if sc.Topo.Kind == TopoHand {
			w, err := build(sc)
			if err != nil {
				return
			}
			if err := w.g.Validate(); err != nil {
				t.Fatalf("built graph invalid: %v", err)
			}
		}
	})
}
