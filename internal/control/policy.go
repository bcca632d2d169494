package control

import "bneck/internal/rate"

// PolicyKind selects a path re-optimization policy (DESIGN.md §11).
type PolicyKind int

const (
	// Pinned keeps every session on the path it joined on until a failure
	// forces a migration: the paper's behavior, and the default.
	Pinned PolicyKind = iota
	// ReoptimizeOnRestore sweeps the active sessions at every restore and
	// capacity upgrade, and migrates — Leave, then a successor's Join — those
	// whose path exceeds their best path by the hysteresis margin.
	ReoptimizeOnRestore
)

// String returns the scenario-DSL spelling of the kind.
func (k PolicyKind) String() string {
	switch k {
	case Pinned:
		return "pinned"
	case ReoptimizeOnRestore:
		return "reoptimize"
	}
	return "unknown"
}

// ParsePolicy maps "pinned" and "reoptimize" (or "reoptimize-on-restore")
// to their kinds, the one parser of policy names; ok is false otherwise.
func ParsePolicy(s string) (k PolicyKind, ok bool) {
	switch s {
	case "pinned":
		return Pinned, true
	case "reoptimize", "reoptimize-on-restore":
		return ReoptimizeOnRestore, true
	}
	return Pinned, false
}

// Policy is a path policy with its hysteresis. The zero value is Pinned.
type Policy struct {
	Kind PolicyKind
	// Stretch: migrate only when len(current) > Stretch × len(best). Values
	// ≤ 1 mean any strictly longer path qualifies (the default).
	Stretch float64
	// MinGain: migrate only when the move saves at least MinGain hops.
	// Values ≤ 1 mean any strict improvement (the default).
	MinGain int
}

// capacityGain: raising a capacity at least this many times sweeps. It cannot
// change a min-hop path, so the upgrade is an operator signal: a session whose
// best path crosses the link moves on any strict improvement (DESIGN.md §11).
const capacityGain = 2

// Enabled reports whether the policy runs re-optimization sweeps at all.
func (p Policy) Enabled() bool { return p.Kind == ReoptimizeOnRestore }

// shouldMigrate decides whether a session on a curLen-hop path moves to its
// bestLen-hop best path; upgraded bypasses the hysteresis.
func (p Policy) shouldMigrate(curLen, bestLen int, upgraded bool) bool {
	switch {
	case !p.Enabled() || bestLen <= 0 || bestLen >= curLen:
		return false
	case upgraded:
		return true
	}
	return curLen-bestLen >= max(p.MinGain, 1) && float64(curLen) > max(p.Stretch, 1)*float64(bestLen)
}

// capacityTriggers reports whether a capacity change from old to new fires
// the sweep: a strict increase of at least capacityGain × old.
func (p Policy) capacityTriggers(old, new rate.Rate) bool {
	return p.Enabled() && old.Less(new) && new.Float64() >= capacityGain*old.Float64()
}
