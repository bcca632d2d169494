package mc

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"

	"bneck/internal/sim"
)

// Trace is a serialized schedule: the pick made at every consulted
// tie-break, plus enough metadata to rebuild the exact workload. Replaying
// the picks on the same script reproduces the schedule byte for byte — the
// engine is deterministic between choice points, and a pick of 0 (or a pick
// past the end of the vector) is the engine's default order.
type Trace struct {
	// ScriptHash identifies the script the picks apply to (sha256 prefix of
	// the source text).
	ScriptHash string
	// FuzzSeed, when nonzero, says the script's timeline must first be
	// perturbed by the churn fuzzer with this seed.
	FuzzSeed int64
	// Picks is the choice vector; entry i is the candidate index taken at
	// the i-th consulted tie-break.
	Picks []int
}

func newTrace(m *Model, picks []int) *Trace {
	t := &Trace{ScriptHash: m.Hash, FuzzSeed: m.FuzzSeed, Picks: append([]int(nil), picks...)}
	// Trailing zeros are the default order; dropping them keeps committed
	// traces minimal without changing the replayed schedule.
	for len(t.Picks) > 0 && t.Picks[len(t.Picks)-1] == 0 {
		t.Picks = t.Picks[:len(t.Picks)-1]
	}
	return t
}

// Deviations counts nonzero picks — the schedule's distance from the
// default order, and the quantity minimization shrinks.
func (t *Trace) Deviations() int {
	n := 0
	for _, p := range t.Picks {
		if p != 0 {
			n++
		}
	}
	return n
}

// Format renders the trace file:
//
//	bneck-mc trace v1
//	script <hash>
//	fuzz <seed>        # only for fuzzed timelines
//	picks 0 0 2 1 3
func (t *Trace) Format() string {
	var b strings.Builder
	b.WriteString("bneck-mc trace v1\n")
	fmt.Fprintf(&b, "script %s\n", t.ScriptHash)
	if t.FuzzSeed != 0 {
		fmt.Fprintf(&b, "fuzz %d\n", t.FuzzSeed)
	}
	b.WriteString("picks")
	for _, p := range t.Picks {
		fmt.Fprintf(&b, " %d", p)
	}
	b.WriteString("\n")
	return b.String()
}

// WriteFile writes the trace to path.
func (t *Trace) WriteFile(path string) error {
	return os.WriteFile(path, []byte(t.Format()), 0o644)
}

// ParseTrace reads the trace format produced by Format: the header is the
// first line that is neither blank nor a comment.
func ParseTrace(src string) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(strings.NewReader(src))
	lineNo, header := 0, false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch {
		case !header:
			if line != "bneck-mc trace v1" {
				return nil, fmt.Errorf("mc: not a trace file (bad header %q)", line)
			}
			header = true
		case f[0] == "script" && len(f) == 2:
			t.ScriptHash = f[1]
		case f[0] == "fuzz" && len(f) == 2:
			seed, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("mc: trace line %d: bad fuzz seed %q", lineNo, f[1])
			}
			t.FuzzSeed = seed
		case f[0] == "picks":
			for _, s := range f[1:] {
				p, err := strconv.Atoi(s)
				if err != nil || p < 0 {
					return nil, fmt.Errorf("mc: trace line %d: bad pick %q", lineNo, s)
				}
				t.Picks = append(t.Picks, p)
			}
		default:
			return nil, fmt.Errorf("mc: trace line %d: unknown directive %q", lineNo, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if t.ScriptHash == "" {
		return nil, fmt.Errorf("mc: trace missing script hash")
	}
	return t, nil
}

// LoadTrace reads a trace file from disk.
func LoadTrace(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseTrace(string(data))
}

// replayPicker replays a pick vector, default order beyond its end.
type replayPicker struct{ picks []int }

func (r *replayPicker) pick(depth int, cands []sim.Choice) int {
	if depth < len(r.picks) {
		return r.picks[depth]
	}
	return 0
}

// Replay executes the trace's schedule against the model and returns the
// violation it reproduces (nil if the schedule satisfies every invariant —
// e.g. the bug the trace documents has been fixed). The model must match
// the trace: hash mismatches are an error, because the picks would select
// among different events.
func Replay(m *Model, t *Trace) (*Violation, error) {
	if m.Hash != t.ScriptHash {
		return nil, fmt.Errorf("mc: trace was recorded against script %s, model is %s", t.ScriptHash, m.Hash)
	}
	if t.FuzzSeed != 0 && m.FuzzSeed != t.FuzzSeed {
		return nil, fmt.Errorf("mc: trace needs fuzz seed %d applied to the model (have %d)", t.FuzzSeed, m.FuzzSeed)
	}
	_, v := runOnce(m, &replayPicker{picks: t.Picks})
	return v, nil
}
