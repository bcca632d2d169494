package control

import (
	"errors"
	"strings"
	"testing"

	"bneck/internal/core"
	"bneck/internal/graph"
	"bneck/internal/rate"
	"bneck/internal/waterfill"
)

// fakeTask is a hand-built link task: its invariant error and stability are
// whatever the test sets.
type fakeTask struct {
	err      error
	unstable bool
}

func (f *fakeTask) CheckInvariants() error { return f.err }
func (f *fakeTask) Stable() bool           { return !f.unstable }

// granted is what the fake rate source reports for one incarnation.
type granted struct {
	r             rate.Rate
	ok, converged bool
}

// checkRig is a rig with two sessions joined at unlimited demand over the
// shared top route (ha→hb, hc→hd: 50 Mbps each on r1-r2), a fake rate
// source that holds exactly those rates, and three stable link tasks.
type checkRig struct {
	*rig
	a, b  core.SessionID
	rates map[core.SessionID]*granted
	tasks []*fakeTask
}

func newCheckRig(t *testing.T) *checkRig {
	r := &checkRig{rig: newRig(t), rates: map[core.SessionID]*granted{}}
	r.a, r.b = r.session("ha", "hb"), r.session("hc", "hd")
	for _, id := range []core.SessionID{r.a, r.b} {
		r.c.Join(id, rate.Inf)
		r.rates[id] = &granted{r: rate.Mbps(50), ok: true, converged: true}
	}
	r.tasks = []*fakeTask{{}, {}, {}}
	return r
}

func (r *checkRig) check(crossCheck bool) error {
	rateOf := func(id core.SessionID) (rate.Rate, bool, bool) {
		g := r.rates[id]
		return g.r, g.ok, g.converged
	}
	tasks := func(yield func(graph.LinkID, Task) bool) {
		for l, t := range r.tasks {
			if !yield(graph.LinkID(l), t) {
				return
			}
		}
	}
	return r.c.Check(rateOf, tasks, crossCheck)
}

// TestCheckFailureClasses: each way a quiescent state can be wrong makes
// Check fail with its own error, and the right state passes with and
// without the oracle cross-check.
func TestCheckFailureClasses(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(r *checkRig)
		want  string // a substring of the error only this class produces
	}{
		{"stale", func(r *checkRig) { r.c.incs[r.b-1].departed = true }, ErrStaleIncarnation.Error()},
		{"failed link", func(r *checkRig) { r.g.FailLink(r.link["r1-r2"][0]) }, "session 1 is routed over a failed link"},
		{"no rate", func(r *checkRig) { r.rates[r.b].ok = false }, "session 2 has no rate"},
		{"wrong rate", func(r *checkRig) { r.rates[r.a].r = rate.Mbps(40) }, "session 1 rate 40000000, oracle 50000000"},
		{"unconverged", func(r *checkRig) { r.rates[r.b].converged = false }, "session 2 rate not confirmed"},
		{"invariant", func(r *checkRig) { r.tasks[1].err = errors.New("reCount off") }, "link 1: reCount off"},
		{"unstable", func(r *checkRig) { r.tasks[2].unstable = true }, "link 2 unstable"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newCheckRig(t)
			for _, cross := range []bool{false, true} {
				if err := r.check(cross); err != nil {
					t.Fatalf("right state (cross-check %t): %v", cross, err)
				}
			}
			tc.spoil(r)
			err := r.check(false)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Check = %v, want an error containing %q", err, tc.want)
			}
			if tc.name == "stale" && !errors.Is(err, ErrStaleIncarnation) {
				t.Fatalf("Check = %v, does not wrap ErrStaleIncarnation", err)
			}
		})
	}
}

// TestOracleCrossCheckCatchesWrongRate: the cross-check Check runs with
// crossCheck on rejects a seeded wrong rate in the oracle's own answer.
func TestOracleCrossCheckCatchesWrongRate(t *testing.T) {
	r := newCheckRig(t)
	rates, err := r.c.Oracle()
	if err != nil || len(rates) != 2 || !rates[0].Equal(rate.Mbps(50)) {
		t.Fatalf("oracle = %v, %v; want two sessions at 50 Mbps", rates, err)
	}
	rates[0] = rates[0].DivInt(2)
	if err := r.c.oracle.CrossCheck(rates); !errors.Is(err, waterfill.ErrCrossCheck) {
		t.Fatalf("cross-check of a halved rate: %v, want ErrCrossCheck", err)
	}
}
