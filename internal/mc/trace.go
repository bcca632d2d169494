package mc

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// traceHeader is the first line of every trace file. Version 1 recorded
// same-instant tie-break picks, which the engine no longer takes.
const traceHeader = "bneck-mc trace v2"

// Trace is a serialized schedule: the hold of every packet crossing a
// physical link, plus enough metadata to rebuild the exact workload.
// Replaying the holds on the same script reproduces the schedule byte for
// byte — the simulator is deterministic given them, and a crossing past the
// end of the vector is held for nothing.
type Trace struct {
	// ScriptHash identifies the script the holds apply to (sha256 prefix of
	// the source text).
	ScriptHash string
	// FuzzSeed, when nonzero, says the script's timeline must first be
	// perturbed by the churn fuzzer with this seed.
	FuzzSeed int64
	// Delays is the hold vector; entry i is the hold of the run's i-th
	// packet crossing.
	Delays []time.Duration
}

func newTrace(m *Model, delays []time.Duration) *Trace {
	t := &Trace{ScriptHash: m.Hash, FuzzSeed: m.FuzzSeed, Delays: append([]time.Duration(nil), delays...)}
	// Trailing zeros hold nothing; dropping them keeps committed traces
	// minimal without changing the replayed schedule.
	for len(t.Delays) > 0 && t.Delays[len(t.Delays)-1] == 0 {
		t.Delays = t.Delays[:len(t.Delays)-1]
	}
	return t
}

// deviations counts the nonzero holds of a vector.
func deviations(delays []time.Duration) int {
	n := 0
	for _, d := range delays {
		if d != 0 {
			n++
		}
	}
	return n
}

// Deviations counts the trace's nonzero holds — the schedule's distance
// from the undelayed run, and the quantity minimization shrinks.
func (t *Trace) Deviations() int { return deviations(t.Delays) }

// Format renders the trace file, holds in nanoseconds:
//
//	bneck-mc trace v2
//	script <hash>
//	fuzz <seed>        # only for fuzzed timelines
//	delays 0 0 431870 0 1200
func (t *Trace) Format() string {
	var b strings.Builder
	b.WriteString(traceHeader + "\n")
	fmt.Fprintf(&b, "script %s\n", t.ScriptHash)
	if t.FuzzSeed != 0 {
		fmt.Fprintf(&b, "fuzz %d\n", t.FuzzSeed)
	}
	b.WriteString("delays")
	for _, d := range t.Delays {
		fmt.Fprintf(&b, " %d", d.Nanoseconds())
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
		case !header && line == "bneck-mc trace v1":
			return nil, fmt.Errorf("mc: a v1 trace records tie-break picks, which the simulator no longer takes; record the schedule again with cmd/mc (%s)", traceHeader)
		case !header:
			if line != traceHeader {
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
		case f[0] == "delays":
			for _, s := range f[1:] {
				ns, err := strconv.ParseInt(s, 10, 64)
				if err != nil || ns < 0 {
					return nil, fmt.Errorf("mc: trace line %d: bad delay %q", lineNo, s)
				}
				t.Delays = append(t.Delays, time.Duration(ns))
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

// Replay executes the trace's schedule against the model and returns the
// violation it reproduces (nil if the schedule satisfies every invariant —
// e.g. the bug the trace documents has been fixed). The model must match
// the trace: hash mismatches are an error, because the holds would land on
// different packets.
func Replay(m *Model, t *Trace) (*Violation, error) {
	if m.Hash != t.ScriptHash {
		return nil, fmt.Errorf("mc: trace was recorded against script %s, model is %s", t.ScriptHash, m.Hash)
	}
	if t.FuzzSeed != 0 && m.FuzzSeed != t.FuzzSeed {
		return nil, fmt.Errorf("mc: trace needs fuzz seed %d applied to the model (have %d)", t.FuzzSeed, m.FuzzSeed)
	}
	_, v := runOnce(m, &holds{replay: t.Delays})
	return v, nil
}
