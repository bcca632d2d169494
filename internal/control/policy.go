package control

import "bneck/internal/rate"

// Policy selects a path re-optimization policy (DESIGN.md §11). It has no
// knobs: a sweep moves a session onto any strictly shorter path, and the
// capacity trigger is a fixed doubling. The zero value is Pinned.
type Policy int

const (
	// Pinned keeps every session on the path it joined on until a failure
	// forces a migration: the paper's behavior, and the default.
	Pinned Policy = iota
	// ReoptimizeOnRestore sweeps the active sessions at every restore and
	// capacity doubling, and migrates — Leave, then a successor's Join —
	// those whose best path is strictly shorter than their current one.
	ReoptimizeOnRestore
)

// String returns the scenario-DSL spelling of the policy.
func (p Policy) String() string {
	switch p {
	case Pinned:
		return "pinned"
	case ReoptimizeOnRestore:
		return "reoptimize"
	}
	return "unknown"
}

// ParsePolicy maps "pinned" and "reoptimize" to their policies, the one
// parser of policy names; ok is false otherwise.
func ParsePolicy(s string) (p Policy, ok bool) {
	switch s {
	case "pinned":
		return Pinned, true
	case "reoptimize":
		return ReoptimizeOnRestore, true
	}
	return Pinned, false
}

// capacityGain: raising a capacity at least this many times sweeps. It cannot
// change a min-hop path, so the upgrade is an operator signal (DESIGN.md §11).
const capacityGain = 2

// Enabled reports whether the policy runs re-optimization sweeps at all.
func (p Policy) Enabled() bool { return p == ReoptimizeOnRestore }

// shouldMigrate decides whether a session on a curLen-hop path moves to its
// bestLen-hop best path.
func (p Policy) shouldMigrate(curLen, bestLen int) bool {
	return p.Enabled() && 0 < bestLen && bestLen < curLen
}

// capacityTriggers reports whether a capacity change from old to new fires
// the sweep: a strict increase of at least capacityGain × old.
func (p Policy) capacityTriggers(old, new rate.Rate) bool {
	return p.Enabled() && old.Less(new) && new.Float64() >= capacityGain*old.Float64()
}
