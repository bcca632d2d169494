package mc

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestTraceRoundTrip(t *testing.T) {
	in := &Trace{ScriptHash: "00112233aabbccdd", FuzzSeed: 42, Picks: []int{0, 2, 0, 1}}
	out, err := ParseTrace(in.Format())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed the trace:\n in %+v\nout %+v", in, out)
	}
	// Comments and blank lines are tolerated.
	commented := "bneck-mc trace v1\n# produced by a test\n\nscript feed\npicks 3\n"
	out, err = ParseTrace(commented)
	if err != nil {
		t.Fatal(err)
	}
	if out.ScriptHash != "feed" || len(out.Picks) != 1 || out.Picks[0] != 3 {
		t.Fatalf("commented trace misparsed: %+v", out)
	}
	// … before the header too.
	out, err = ParseTrace("\n# c\nbneck-mc trace v1\nscript feed\npicks 3\n")
	if err != nil || out.ScriptHash != "feed" {
		t.Fatalf("header after a blank line and a comment: %+v, %v", out, err)
	}
}

func TestTraceParseErrors(t *testing.T) {
	for _, src := range []string{
		"not a trace\n",
		"\nscript abc\npicks 1 2\n",                 // no header after a blank line
		"# c\nscript abc\npicks 1\n",                // no header after a comment
		"bneck-mc trace v1\npicks 1 2\n",            // missing script hash
		"bneck-mc trace v1\nscript ab\npicks -1\n",  // negative pick
		"bneck-mc trace v1\nscript ab\npicks one\n", // non-numeric pick
		"bneck-mc trace v1\nscript ab\nwarp 9\n",    // unknown directive
		"bneck-mc trace v1\nscript ab\nfuzz x\n",    // bad fuzz seed
	} {
		if _, err := ParseTrace(src); err == nil {
			t.Errorf("ParseTrace accepted %q", src)
		}
	}
}

func TestNewTraceStripsTrailingDefaults(t *testing.T) {
	m := mustModel(t, tinyScript)
	tr := newTrace(m, []int{0, 1, 0, 0, 0})
	if !reflect.DeepEqual(tr.Picks, []int{0, 1}) {
		t.Fatalf("trailing defaults kept: %v", tr.Picks)
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

func TestTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trace")
	in := &Trace{ScriptHash: "aa", Picks: []int{1, 2}}
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
	if !strings.HasPrefix(in.Format(), "bneck-mc trace v1\n") {
		t.Fatalf("format lacks header: %q", in.Format())
	}
}
