// Package policy defines the session path re-optimization policy that the
// control plane (internal/control) applies for both transports, and that the
// scenario runner and the public API configure.
//
// B-Neck pins a session's path at join time: the protocol has no notion of
// "a better path appeared", only of paths that stopped existing. After a
// failure → migration → restore cycle, sessions therefore stay parked on
// their detour paths forever, inflating latency and link load even though
// the protocol is quiescent again. A path policy decides whether the
// transport may migrate such sessions back — through the protocol's own
// Leave → reroute → Join machinery, a fresh incarnation per reroute, exactly
// like a failure-driven migration — once a topology event signals that
// shorter paths may exist.
//
// Two kinds exist. Pinned (the default) is the paper's behavior: paths never
// move unless a failure forces them to. ReoptimizeOnRestore re-runs
// shortest-path over the active population whenever a link is restored (and,
// secondarily, when a link's capacity is increased past a threshold) and
// migrates every session whose current path is longer than its best path by
// the configured stretch/hysteresis margin.
//
// Triggers are deliberately coarse — whole-population sweeps at restores —
// because that is what keeps the policy deterministic: the sweep runs in
// serial context (one simulator event, or under the runtime mutex on the
// live transport), walks the incarnations in creation order, and resolves paths
// with the deterministic BFS resolver, so policy-on runs are reproducible.
package policy

import "bneck/internal/rate"

// Kind selects a path re-optimization policy.
type Kind int

const (
	// Pinned keeps every session on the path it joined on until a failure
	// forces a migration — the paper's (and this repository's historical)
	// behavior.
	Pinned Kind = iota
	// ReoptimizeOnRestore re-runs shortest-path for the active sessions when
	// a link restore (or a sufficiently large capacity increase) signals
	// that shorter paths may have appeared, and migrates sessions whose
	// current path exceeds the stretch/hysteresis margin.
	ReoptimizeOnRestore
)

// String returns the scenario-DSL spelling of the kind.
func (k Kind) String() string {
	switch k {
	case Pinned:
		return "pinned"
	case ReoptimizeOnRestore:
		return "reoptimize"
	default:
		return "unknown"
	}
}

// Config is a policy with its knobs. The zero value is Pinned with default
// knobs, so existing transport configurations keep their behavior.
type Config struct {
	Kind Kind
	// Stretch is the multiplicative hysteresis: a session migrates only when
	// len(current) > Stretch × len(best). Values ≤ 1 mean any strictly
	// longer path qualifies (the default). A stretch of 1.5 tolerates detours
	// up to 50% longer than the best path.
	Stretch float64
	// MinGain is the additive hysteresis: a session migrates only when the
	// move saves at least MinGain hops. Values ≤ 1 default to 1 (any strict
	// improvement).
	MinGain int
	// CapacityGain gates the capacity-increase trigger: a SetCapacity that
	// raises a link's capacity to at least CapacityGain × the old value runs
	// a re-optimization sweep. Values ≤ 0 default to 2 (a doubling). With
	// the min-hop resolver a capacity change can never alter a best path, so
	// this trigger treats the upgrade as an operator signal instead: sessions
	// whose best path crosses an upgraded link migrate whenever strictly
	// shorter, bypassing the Stretch/MinGain hysteresis.
	CapacityGain float64
}

// Default returns the default policy: Pinned, with default knobs.
func Default() Config { return Config{} }

// Enabled reports whether the policy performs re-optimization sweeps at all.
func (c Config) Enabled() bool { return c.Kind == ReoptimizeOnRestore }

func (c Config) stretch() float64 {
	if c.Stretch < 1 {
		return 1
	}
	return c.Stretch
}

func (c Config) minGain() int {
	if c.MinGain < 1 {
		return 1
	}
	return c.MinGain
}

func (c Config) capacityGain() float64 {
	if c.CapacityGain <= 0 {
		return 2
	}
	return c.CapacityGain
}

// ShouldMigrate decides whether a session on a curLen-hop path should move
// to its bestLen-hop best path. upgraded marks a sweep triggered by a
// capacity increase for a session whose best path crosses an upgraded link:
// the hysteresis knobs are bypassed and any strict improvement migrates.
func (c Config) ShouldMigrate(curLen, bestLen int, upgraded bool) bool {
	if !c.Enabled() || bestLen <= 0 || bestLen >= curLen {
		return false
	}
	if upgraded {
		return true
	}
	if curLen-bestLen < c.minGain() {
		return false
	}
	return float64(curLen) > c.stretch()*float64(bestLen)
}

// CapacityTriggers reports whether a capacity change from old to new fires
// the re-optimization sweep: the policy must be enabled and the new capacity
// must be a strict increase of at least CapacityGain × old.
func (c Config) CapacityTriggers(old, new rate.Rate) bool {
	if !c.Enabled() || !old.Less(new) {
		return false
	}
	return new.Float64() >= c.capacityGain()*old.Float64()
}

// Parse maps a policy name — "pinned" or "reoptimize" (alias
// "reoptimize-on-restore") — to its Kind. ok is false for anything else.
func Parse(s string) (Kind, bool) {
	switch s {
	case "pinned":
		return Pinned, true
	case "reoptimize", "reoptimize-on-restore":
		return ReoptimizeOnRestore, true
	default:
		return Pinned, false
	}
}
