package mc

import (
	"testing"
)

// The committed traces reproduce historical bugs only when the corresponding
// build-tag test double re-opens the hole (see internal/control/bugdouble_*).
// On the fixed code they must replay clean — these are the regression corpus
// entries the ISSUE calls for, run on every `go test`.
func TestRegressionCorpusReplaysClean(t *testing.T) {
	for _, tc := range []struct{ script, trace string }{
		{"testdata/stale_rejoin.bneck", "testdata/stale_rejoin.trace"},
		{"testdata/pr2_stranding.bneck", "testdata/pr2_stranding.trace"},
	} {
		m, err := FromFile(tc.script, 0)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := LoadTrace(tc.trace)
		if err != nil {
			t.Fatal(err)
		}
		v, err := Replay(m, tr)
		if err != nil {
			t.Fatal(err)
		}
		if v != nil {
			t.Errorf("%s: fixed code still violates: %v", tc.trace, v)
		}
	}
}
