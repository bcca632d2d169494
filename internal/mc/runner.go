package mc

import (
	"fmt"
	"math/rand"
	"time"

	"bneck/internal/scenario"
)

// holds is the delay adversary of one run (scenario.SimOptions.Delay): one
// hold per packet crossing a physical link. A swarm run draws each from its
// seed's rng — with probability ½ a time uniform in [0, max), otherwise
// none — and a replay reads them from a trace, none past its end. Every
// draw is recorded, so a violating run serializes as the holds it took.
type holds struct {
	rng    *rand.Rand // nil on replay
	max    time.Duration
	replay []time.Duration
	drawn  []time.Duration
}

func (h *holds) next() time.Duration {
	var d time.Duration
	switch i := len(h.drawn); {
	case h.rng != nil:
		if h.rng.Intn(2) == 0 && h.max > 0 {
			d = time.Duration(h.rng.Int63n(int64(h.max)))
		}
	case i < len(h.replay):
		d = h.replay[i]
	}
	h.drawn = append(h.drawn, d)
	return d
}

// runOnce executes one schedule of the model under the holds and checks the
// simulator-side invariants. It returns the run's result or, when an
// invariant failed, the classified violation (with its trace attached).
// Panics inside the run — protocol state corruption — are converted to
// KindPanic violations rather than unwinding the exploration.
func runOnce(m *Model, h *holds) (res *scenario.Result, v *Violation) {
	defer func() {
		if e := recover(); e != nil {
			v = &Violation{
				Kind:  KindPanic,
				Err:   fmt.Errorf("run panicked: %v", e),
				Trace: newTrace(m, h.drawn),
			}
		}
	}()
	res, err := scenario.RunSimOpts(m.Script, scenario.SimOptions{
		Delay:            h.next,
		OracleCrossCheck: true,
		EpochDeadline:    m.Deadline,
	})
	if err != nil {
		return nil, &Violation{Kind: classify(err), Err: err, Trace: newTrace(m, h.drawn)}
	}
	return res, nil
}

// runLive executes the model once on the live actor runtime (no holds — the
// live transport's nondeterminism is real goroutine scheduling) and
// classifies any failure. The trace cannot replay a live schedule; it
// carries the holds of the simulator run that sampled it, purely as
// provenance.
func runLive(m *Model, simHolds []time.Duration) *Violation {
	if _, err := scenario.RunLive(m.Script); err != nil {
		return &Violation{Kind: liveKind(err), Err: err, Trace: newTrace(m, simHolds)}
	}
	return nil
}

func liveKind(err error) InvariantKind {
	if k := classify(err); k == KindStaleIncarnation || k == KindExpectation {
		return k
	}
	return KindLive
}
