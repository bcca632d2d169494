package control

import (
	"errors"
	"strings"
	"testing"
	"time"

	"bneck/internal/core"
	"bneck/internal/graph"
	"bneck/internal/rate"
	"bneck/internal/waterfill"
)

// fakeTask is a hand-built link task: its invariant error, stability and
// whether it panics are whatever the test sets.
type fakeTask struct {
	err              error
	unstable, panics bool
}

func (f *fakeTask) CheckInvariants() error {
	if f.panics {
		panic("corrupt table")
	}
	return f.err
}

func (f *fakeTask) Stable() bool { return !f.unstable }

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

// pad grows the rig's graph to sweepAsideLinks links with a chain of routers
// no session crosses, so Check sweeps the link tasks on its helper.
func (r *checkRig) pad() {
	prev := r.g.AddRouter("pad")
	for r.g.NumLinks() < sweepAsideLinks {
		next := r.g.AddRouter("pad")
		r.g.Connect(prev, next, rate.Mbps(100), time.Microsecond)
		prev = next
	}
}

// TestCheckFailureClasses: each way a quiescent state can be wrong makes
// Check fail with its own error, and the right state passes with and
// without the oracle cross-check. Spoiling two classes at once gives the
// error of the one first in Check's order: sessions before links, links in
// walk order. Every case runs on a small graph (the sweep inline) and on a
// graph of sweepAsideLinks links (the sweep beside the oracle).
func TestCheckFailureClasses(t *testing.T) {
	wrongRate := func(r *checkRig) { r.rates[r.a].r = rate.Mbps(40) }
	invariant := func(r *checkRig) { r.tasks[1].err = errors.New("reCount off") }
	unstable := func(l int) func(r *checkRig) { return func(r *checkRig) { r.tasks[l].unstable = true } }
	both := func(f, g func(r *checkRig)) func(r *checkRig) { return func(r *checkRig) { f(r); g(r) } }
	for _, tc := range []struct {
		name  string
		spoil func(r *checkRig)
		want  string // a substring of the error only this class produces
	}{
		{"stale", func(r *checkRig) { r.c.incs[r.b-1].departed = true }, ErrStaleIncarnation.Error()},
		{"failed link", func(r *checkRig) { r.g.FailLink(r.link["r1-r2"][0]) }, "session 1 is routed over a failed link"},
		{"no rate", func(r *checkRig) { r.rates[r.b].ok = false }, "session 2 has no rate"},
		{"wrong rate", wrongRate, "session 1 rate 40000000, oracle 50000000"},
		{"unconverged", func(r *checkRig) { r.rates[r.b].converged = false }, "session 2 rate not confirmed"},
		{"invariant", invariant, "link 1: reCount off"},
		{"unstable", unstable(2), "link 2 unstable"},
		{"wrong rate before unstable link 0", both(unstable(0), wrongRate), "session 1 rate 40000000, oracle 50000000"},
		{"invariant on link 1 before unstable link 2", both(unstable(2), invariant), "link 1: reCount off"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, padded := range []bool{false, true} {
				r := newCheckRig(t)
				if padded {
					r.pad()
				}
				for _, cross := range []bool{false, true} {
					if err := r.check(cross); err != nil {
						t.Fatalf("padded=%t: right state (cross-check %t): %v", padded, cross, err)
					}
				}
				tc.spoil(r)
				err := r.check(false)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("padded=%t: Check = %v, want an error containing %q", padded, err, tc.want)
				}
				if tc.name == "stale" && !errors.Is(err, ErrStaleIncarnation) {
					t.Fatalf("padded=%t: Check = %v, does not wrap ErrStaleIncarnation", padded, err)
				}
			}
		})
	}
}

// TestCheckSweepPanicReachesCaller: a link task that panics in the sweep
// panics Check's caller, whether the sweep runs inline or on the helper.
func TestCheckSweepPanicReachesCaller(t *testing.T) {
	for _, padded := range []bool{false, true} {
		r := newCheckRig(t)
		if padded {
			r.pad()
		}
		r.tasks[1].panics = true
		func() {
			defer func() {
				if p := recover(); p != "corrupt table" {
					t.Errorf("padded=%t: recovered %v, want the task's panic", padded, p)
				}
			}()
			_ = r.check(false)
		}()
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
