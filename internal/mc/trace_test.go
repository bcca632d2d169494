package mc

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTraceRoundTrip(t *testing.T) {
	in := &Trace{ScriptHash: "00112233aabbccdd", FuzzSeed: 42, Delays: []time.Duration{0, 2500, 0, 1}}
	out, err := ParseTrace(in.Format())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed the trace:\n in %+v\nout %+v", in, out)
	}
	// Comments and blank lines are tolerated.
	commented := "bneck-mc trace v2\n# produced by a test\n\nscript feed\ndelays 3\n"
	out, err = ParseTrace(commented)
	if err != nil {
		t.Fatal(err)
	}
	if out.ScriptHash != "feed" || len(out.Delays) != 1 || out.Delays[0] != 3 {
		t.Fatalf("commented trace misparsed: %+v", out)
	}
	// … before the header too.
	out, err = ParseTrace("\n# c\nbneck-mc trace v2\nscript feed\ndelays 3\n")
	if err != nil || out.ScriptHash != "feed" {
		t.Fatalf("header after a blank line and a comment: %+v, %v", out, err)
	}
}

func TestTraceParseErrors(t *testing.T) {
	for _, src := range []string{
		"not a trace\n",
		"\nscript abc\ndelays 1 2\n",                 // no header after a blank line
		"# c\nscript abc\ndelays 1\n",                // no header after a comment
		"bneck-mc trace v2\ndelays 1 2\n",            // missing script hash
		"bneck-mc trace v2\nscript ab\ndelays -1\n",  // negative delay
		"bneck-mc trace v2\nscript ab\ndelays one\n", // non-numeric delay
		"bneck-mc trace v2\nscript ab\ndelays 1.5\n", // not whole nanoseconds
		"bneck-mc trace v2\nscript ab\npicks 0 1\n",  // a v1 directive
		"bneck-mc trace v2\nscript ab\nwarp 9\n",     // unknown directive
		"bneck-mc trace v2\nscript ab\nfuzz x\n",     // bad fuzz seed
		"bneck-mc trace v3\nscript ab\ndelays 1 2\n", // unknown version
	} {
		if _, err := ParseTrace(src); err == nil {
			t.Errorf("ParseTrace accepted %q", src)
		}
	}
}

// TestTraceV1Refused: a trace of the retired tie-break format is refused
// with an error that names the format it found and the one it wants.
func TestTraceV1Refused(t *testing.T) {
	_, err := ParseTrace("# old\nbneck-mc trace v1\nscript 41fe492d48b22fa8\npicks 0 1\n")
	if err == nil {
		t.Fatal("a v1 trace was accepted")
	}
	for _, want := range []string{"v1", "tie-break", traceHeader} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("v1 refusal %q does not mention %q", err, want)
		}
	}
}

func TestNewTraceStripsTrailingDefaults(t *testing.T) {
	m := mustModel(t, tinyScript)
	tr := newTrace(m, []time.Duration{0, 700, 0, 0, 0})
	if !reflect.DeepEqual(tr.Delays, []time.Duration{0, 700}) {
		t.Fatalf("trailing zero holds kept: %v", tr.Delays)
	}
	if tr.Deviations() != 1 {
		t.Fatalf("Deviations = %d, want 1", tr.Deviations())
	}
	if tr.ScriptHash != m.Hash {
		t.Fatalf("trace hash %q, model hash %q", tr.ScriptHash, m.Hash)
	}
}

func TestReplayRejectsMismatches(t *testing.T) {
	m := mustModel(t, tinyScript)
	if _, err := Replay(m, &Trace{ScriptHash: "deadbeef"}); err == nil {
		t.Fatal("hash mismatch accepted")
	}
	if _, err := Replay(m, &Trace{ScriptHash: m.Hash, FuzzSeed: 9}); err == nil {
		t.Fatal("fuzz-seed mismatch accepted")
	}
}

// TestDelayTraceReplays records the holds of one swarm run on the paper
// fixture, writes them as a trace and replays the parsed trace twice: both
// replays must take the recorded holds and reach the recorded run's
// per-epoch packet counts and quiescence times.
func TestDelayTraceReplays(t *testing.T) {
	m, err := FromFile("testdata/paper.bneck")
	if err != nil {
		t.Fatal(err)
	}
	swarm := swarmHolds(m, 3)
	want, v := runOnce(m, swarm)
	if v != nil {
		t.Fatal(v)
	}
	tr, err := ParseTrace(newTrace(m, swarm.drawn).Format())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Deviations() == 0 {
		t.Fatal("the swarm run held no packet")
	}
	for i := range 2 {
		h := &holds{replay: tr.Delays}
		got, v := runOnce(m, h)
		if v != nil {
			t.Fatalf("replay %d: %v", i, v)
		}
		if !reflect.DeepEqual(h.drawn, swarm.drawn) {
			t.Fatalf("replay %d took other holds than the recorded run", i)
		}
		if len(got.Epochs) != len(want.Epochs) {
			t.Fatalf("replay %d: %d epochs, recorded %d", i, len(got.Epochs), len(want.Epochs))
		}
		for e := range want.Epochs {
			g, w := got.Epochs[e], want.Epochs[e]
			if g.Packets != w.Packets || g.Quiescence != w.Quiescence {
				t.Fatalf("replay %d epoch %d: %d packets, quiescent at %v; recorded %d at %v",
					i, e, g.Packets, g.Quiescence, w.Packets, w.Quiescence)
			}
		}
	}
}

// swarmHolds returns the holds Explore draws for one seed.
func swarmHolds(m *Model, seed int64) *holds {
	return &holds{rng: rand.New(rand.NewSource(seed)), max: m.Hold}
}

func TestTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trace")
	in := &Trace{ScriptHash: "aa", Delays: []time.Duration{1, 2}}
	if err := in.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	out, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("file round trip changed the trace: %+v vs %+v", in, out)
	}
	if !strings.HasPrefix(in.Format(), traceHeader+"\n") {
		t.Fatalf("format lacks header: %q", in.Format())
	}
}
