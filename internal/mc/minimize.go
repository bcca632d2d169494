package mc

import "time"

// Minimization is ddmin (Zeller's delta debugging) over the trace's
// deviations — the nonzero holds. A schedule is "the undelayed run plus a
// set of deviations", so shrinking the deviation set while the violation
// still reproduces yields the smallest explanation of the failure: a trace
// a human can read as "these N packets, held this long, break the
// invariant". Reproduction means replaying the candidate trace yields a
// violation of the same kind; a different violation is a different bug and
// does not count.

// Minimize shrinks t against the model and returns the minimized trace and
// the number of replays spent. The input trace must reproduce a violation of
// kind `kind` (as Replay reports); if it does not, Minimize returns it
// unchanged.
func Minimize(m *Model, t *Trace, kind InvariantKind) (*Trace, int, error) {
	replays := 0
	reproduces := func(delays []time.Duration) (bool, error) {
		replays++
		v, err := Replay(m, &Trace{ScriptHash: t.ScriptHash, FuzzSeed: t.FuzzSeed, Delays: delays})
		if err != nil {
			return false, err
		}
		return v != nil && v.Kind == kind, nil
	}

	// Deviation positions in the hold vector.
	var devs []int
	for i, d := range t.Delays {
		if d != 0 {
			devs = append(devs, i)
		}
	}
	build := func(keep []int) []time.Duration {
		delays := make([]time.Duration, len(t.Delays))
		for _, i := range keep {
			delays[i] = t.Delays[i]
		}
		return delays
	}

	if ok, err := reproduces(build(devs)); err != nil {
		return nil, replays, err
	} else if !ok {
		return t, replays, nil
	}

	// Shortcut ddmin entirely when the undelayed run already reproduces —
	// the deviations were never load-bearing.
	if ok, err := reproduces(build(nil)); err != nil {
		return nil, replays, err
	} else if ok {
		devs = nil
	}

	// ddmin proper: partition the deviations into n chunks and try dropping
	// one chunk at a time; on success restart with the smaller set.
	n := 2
	for len(devs) >= 2 && n <= len(devs) {
		shrunk := false
		chunk := (len(devs) + n - 1) / n
		for lo := 0; lo < len(devs); lo += chunk {
			hi := lo + chunk
			if hi > len(devs) {
				hi = len(devs)
			}
			complement := append(append([]int(nil), devs[:lo]...), devs[hi:]...)
			ok, err := reproduces(build(complement))
			if err != nil {
				return nil, replays, err
			}
			if ok {
				devs = complement
				n = max(n-1, 2)
				shrunk = true
				break
			}
		}
		if !shrunk {
			if n == len(devs) {
				break
			}
			n = min(2*n, len(devs))
		}
	}

	// ddmin's loop needs at least two deviations; finish 1-minimality by
	// testing the lone survivor directly.
	if len(devs) == 1 {
		ok, err := reproduces(build(nil))
		if err != nil {
			return nil, replays, err
		}
		if ok {
			devs = nil
		}
	}

	min := newTrace(m, build(devs))
	min.ScriptHash = t.ScriptHash
	min.FuzzSeed = t.FuzzSeed
	return min, replays, nil
}
