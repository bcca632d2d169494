// Package trace generates the session-dynamics schedules of the paper's
// experiments: bursts of joins, leaves and demand changes placed uniformly
// at random inside a time window (Experiments 1–3 all use 1 ms or 5 ms
// windows). Schedules are deterministic given an RNG.
package trace

import (
	"math/rand"
	"sort"
	"time"

	"bneck/internal/rate"
)

// Kind is the type of a session event.
type Kind int

const (
	// Join brings a new session up with a demand.
	Join Kind = iota + 1
	// Leave removes an active session.
	Leave
	// Change alters an active session's demand.
	Change
)

func (k Kind) String() string {
	switch k {
	case Join:
		return "join"
	case Leave:
		return "leave"
	case Change:
		return "change"
	default:
		return "unknown"
	}
}

// Event is one scheduled session action. Session indexes are caller-defined
// handles (e.g., indexes into a slice of sessions).
type Event struct {
	At      time.Duration
	Kind    Kind
	Session int
	Demand  rate.Rate // for Join and Change
}

// DemandFn draws a session demand. See Unbounded and MixedDemands.
type DemandFn func(r *rand.Rand) rate.Rate

// Unbounded always returns +∞ — greedy sessions.
func Unbounded(*rand.Rand) rate.Rate { return rate.Inf }

// MixedDemands returns +∞ with probability 1-p and otherwise a finite demand
// drawn uniformly from [lo, hi] Mbps — the paper allows sessions to cap
// their requested rate.
func MixedDemands(p float64, lo, hi int64) DemandFn {
	return func(r *rand.Rand) rate.Rate {
		if r.Float64() >= p {
			return rate.Inf
		}
		return rate.Mbps(lo + r.Int63n(hi-lo+1))
	}
}

// Joins schedules n joins for sessions [firstIdx, firstIdx+n) at times drawn
// uniformly from [start, start+window), sorted by time.
func Joins(firstIdx, n int, start, window time.Duration, demand DemandFn, r *rand.Rand) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{
			At:      start + jitter(window, r),
			Kind:    Join,
			Session: firstIdx + i,
			Demand:  demand(r),
		}
	}
	sortEvents(evs)
	return evs
}

// Leaves schedules a leave for every listed session, uniformly inside the
// window.
func Leaves(sessions []int, start, window time.Duration, r *rand.Rand) []Event {
	evs := make([]Event, len(sessions))
	for i, s := range sessions {
		evs[i] = Event{At: start + jitter(window, r), Kind: Leave, Session: s}
	}
	sortEvents(evs)
	return evs
}

// Changes schedules a demand change for every listed session, uniformly
// inside the window.
func Changes(sessions []int, start, window time.Duration, demand DemandFn, r *rand.Rand) []Event {
	evs := make([]Event, len(sessions))
	for i, s := range sessions {
		evs[i] = Event{At: start + jitter(window, r), Kind: Change, Session: s, Demand: demand(r)}
	}
	sortEvents(evs)
	return evs
}

// Sample picks k distinct values from population (a permutation prefix),
// deterministically from r. It panics if k > len(population).
func Sample(population []int, k int, r *rand.Rand) []int {
	if k > len(population) {
		panic("trace: sample larger than population")
	}
	idx := r.Perm(len(population))[:k]
	out := make([]int, k)
	for i, j := range idx {
		out[i] = population[j]
	}
	sort.Ints(out)
	return out
}

func jitter(window time.Duration, r *rand.Rand) time.Duration {
	if window <= 0 {
		return 0
	}
	return time.Duration(r.Int63n(int64(window)))
}

func sortEvents(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
}
