package scenario

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
)

// conformanceTopology is the diamond of reoptimize.bneck with two sessions:
// a direct 80 Mbps route r1–r2 and a 40 Mbps detour r1–r3–r2.
const conformanceTopology = `
router r1
router r2
router r3
link r1 r2 80mbps 1ms
link r1 r3 40mbps 1ms
link r3 r2 40mbps 1ms
host ha r1
host hb r2
host hc r1
host hd r2
session s ha hb
session u hc hd
`

// uncheckedScript parses header with Parse and appends the `at` lines without
// the static timeline check, which rejects exactly the call sequences the
// conformance table is about: the transports must absorb them by themselves.
func uncheckedScript(header string, lines []string) (*Script, error) {
	sc, err := Parse(header)
	if err != nil {
		return nil, err
	}
	for i, line := range lines {
		f := strings.Fields(line)
		if len(f) < 3 || f[0] != "at" {
			return nil, fmt.Errorf("line %q is not an at line", line)
		}
		ev, err := parseEvent(f[1:], i+1)
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", line, err)
		}
		sc.Events = append(sc.Events, ev)
	}
	sort.SliceStable(sc.Events, func(i, j int) bool { return sc.Events[i].At < sc.Events[j].At })
	return sc, nil
}

// agree reports the first difference between a simulator and a live run of
// one script that does not depend on timing: the cumulative migration and
// re-optimization counts, and after every epoch each session's state, its
// current path link for link and its quiescent rate.
func agree(sc *Script, simRes, liveRes *Result) error {
	if simRes.Migrations != liveRes.Migrations || simRes.Reoptimizations != liveRes.Reoptimizations {
		return fmt.Errorf("migrations/reoptimizations sim %d/%d, live %d/%d",
			simRes.Migrations, simRes.Reoptimizations, liveRes.Migrations, liveRes.Reoptimizations)
	}
	if len(simRes.Epochs) != len(liveRes.Epochs) {
		return fmt.Errorf("%d sim epochs, %d live epochs", len(simRes.Epochs), len(liveRes.Epochs))
	}
	for i, se := range simRes.Epochs {
		for k, ss := range se.sessions {
			ls := liveRes.Epochs[i].sessions[k]
			if ss.state != ls.state || !slices.Equal(ss.path, ls.path) || !ss.rate.Equal(ls.rate) {
				return fmt.Errorf("epoch %v: session %s: sim %v on %v at %v, live %v on %v at %v",
					se.At, sc.Sessions[k].Name, ss.state, ss.path, ss.rate, ls.state, ls.path, ls.rate)
			}
		}
	}
	return nil
}

// TestTransportConformance runs one table of control-plane call sequences
// that a well-formed script never contains through both transports. Each
// run validates every epoch against the oracle, its expect lines pin the
// agreed outcome, and the two transports must agree epoch by epoch.
func TestTransportConformance(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy string
		lines  []string
	}{
		{"double join", "", []string{
			"at 0ms join u demand=10mbps",
			"at 0ms join s demand=20mbps",
			"at 0ms join s demand=30mbps",
			"at 0ms expect rate s 30mbps",
			"at 10ms join s",
			"at 10ms expect rate s 70mbps",
		}},
		{"leave before join", "", []string{
			"at 0ms join u demand=10mbps",
			"at 0ms leave s",
			"at 0ms expect rate s 0",
			"at 10ms join s",
			"at 10ms expect rate s 70mbps",
		}},
		{"change after leave", "", []string{
			"at 0ms join u demand=10mbps",
			"at 0ms join s",
			"at 10ms leave s",
			"at 20ms change s demand=5mbps",
			"at 20ms expect rate s 0",
			"at 20ms expect rate u 10mbps",
			"at 30ms join s",
			"at 30ms expect rate s 70mbps",
		}},
		{"change while stranded", "", []string{
			"at 0ms join u demand=10mbps",
			"at 0ms join s",
			"at 10ms fail ha r1",
			"at 10ms expect stranded 1",
			"at 20ms change s demand=20mbps",
			"at 20ms expect stranded 1",
			"at 20ms expect rate s 0",
			"at 30ms restore ha r1",
			"at 30ms expect stranded 0",
			"at 30ms expect rate s 20mbps",
		}},
		{"leave while stranded, rejoin before restore", "", []string{
			"at 0ms join u demand=10mbps",
			"at 0ms join s",
			"at 10ms fail ha r1",
			"at 20ms leave s",
			"at 20ms expect stranded 0",
			"at 30ms join s demand=15mbps",
			"at 30ms expect stranded 1",
			"at 40ms restore ha r1",
			"at 40ms expect stranded 0",
			"at 40ms expect rate s 15mbps",
			"at 40ms expect migrated 0",
		}},
		{"fail a failed link, restore an up link", "", []string{
			"at 0ms join u demand=10mbps",
			"at 0ms join s",
			"at 10ms fail r1 r2",
			"at 10ms expect migrated 2",
			"at 10ms expect rate s 30mbps",
			"at 20ms fail r1 r2",
			"at 20ms restore r1 r3",
			"at 20ms expect migrated 2",
			"at 30ms restore r1 r2",
			"at 30ms restore r1 r2",
			"at 30ms expect migrated 2",
			"at 30ms expect reoptimized 0",
			"at 30ms expect rate s 30mbps",
		}},
		{"set-capacity upgrade under reoptimize", "policy reoptimize stretch=1.5", []string{
			"at 0ms join u demand=10mbps",
			"at 0ms join s",
			"at 10ms fail r1 r2",
			"at 10ms expect migrated 2",
			"at 20ms restore r1 r2",
			"at 20ms expect reoptimized 0",
			"at 20ms expect rate s 30mbps",
			"at 30ms set-capacity r1 r2 160mbps",
			"at 30ms expect reoptimized 2",
			"at 30ms expect rate s 100mbps",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := uncheckedScript(tc.policy+"\n"+conformanceTopology, tc.lines)
			if err != nil {
				t.Fatal(err)
			}
			simRes, err := RunSim(sc)
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			liveRes, err := RunLive(sc)
			if err != nil {
				t.Fatalf("live: %v", err)
			}
			if err := agree(sc, simRes, liveRes); err != nil {
				t.Fatal(err)
			}
		})
	}
}
