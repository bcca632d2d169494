package mc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"bneck/internal/scenario"
	"bneck/internal/topology"
)

// boundFactor is the slack multiplier on the structural quiescence bound. The
// paper bounds re-quiescence by O(sessions × hops) round-trips after the last
// scripted event; the factor absorbs transmission-time and queuing slack on
// top of pure propagation.
const boundFactor = 8.0

// Model is a checkable workload: a parsed scenario plus the structural
// quiescence bound its epochs are held to and the bound on the swarm's
// holds.
type Model struct {
	Script *scenario.Script
	// Source is the script text; Hash identifies it in trace files.
	Source string
	Hash   string
	// Deadline is the per-epoch quiescence bound (0 disables the invariant).
	Deadline time.Duration
	// Hold bounds the swarm's holds: each packet crossing is held, with
	// probability ½, for a time uniform in [0, Hold). It is the per-hop
	// round trip the quiescence bound is built from; zero holds nothing.
	Hold time.Duration
	// FuzzSeed, when nonzero, records that Script's timeline was perturbed
	// from the base script by the churn fuzzer with this seed — replay
	// re-derives the same perturbation.
	FuzzSeed int64
}

// FromScript parses src and derives its quiescence bound.
func FromScript(src string) (*Model, error) {
	sc, err := scenario.Parse(src)
	if err != nil {
		return nil, err
	}
	m := &Model{Script: sc, Source: src, Hash: hashSource(src)}
	m.Deadline, m.Hold = quiescenceBound(sc)
	return m, nil
}

// FromFile is FromScript over a file.
func FromFile(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return FromScript(string(data))
}

func hashSource(src string) string {
	h := sha256.Sum256([]byte(src))
	return hex.EncodeToString(h[:8])
}

// quiescenceBound derives a per-epoch deadline from the script's structure,
// boundFactor × sessions × hops × per-hop round-trip, and returns it with
// the per-hop round-trip. Hand-built scripts measure their own
// declarations; generated topologies use the generator's hierarchy depth and
// per-tier delays. The bound is deliberately structural, not empirical: the
// invariant asserts the paper's O(sessions × hops) shape, and the factor
// only absorbs constant slack (transmission time, queueing, holds). A script
// without sessions gets no deadline.
func quiescenceBound(sc *scenario.Script) (bound, perHop time.Duration) {
	var hops int
	var maxDelay time.Duration
	switch sc.Topo.Kind {
	case scenario.TopoHand:
		// Worst path cannot exceed every router plus the two host links.
		hops = len(sc.Routers) + 2
		for _, l := range sc.Links {
			if l.Delay > maxDelay {
				maxDelay = l.Delay
			}
		}
		for _, h := range sc.Hosts {
			if h.Delay > maxDelay {
				maxDelay = h.Delay
			}
		}
	case scenario.TopoTransitStub:
		// Transit-stub paths: host, stub chain, transit chain, stub chain,
		// host — bounded by a dozen hops; WAN delays reach 10ms.
		hops = 12
		maxDelay = 10 * time.Millisecond
	case scenario.TopoInternet:
		// The internet ladder's hierarchy is edge→metro→core→metro→edge
		// plus host links; long-haul links are 10ms class.
		hops = 10
		maxDelay = 30 * time.Millisecond
	}
	if maxDelay <= 0 {
		maxDelay = time.Microsecond
	}
	perHop = 2 * maxDelay // request/response round trip per hop
	if len(sc.Sessions) == 0 {
		return 0, perHop
	}
	bound = time.Duration(boundFactor * float64(len(sc.Sessions)) * float64(hops) * float64(perHop))
	return max(bound, time.Millisecond), perHop
}

// Synthesize builds a session-churn workload over an internet-ladder rung:
// sessions between distinct generated hosts, all joining in a handful of
// colliding epochs, then `churn` rounds of same-epoch leave/rejoin/change
// races. The workload is emitted as scenario DSL text and parsed like any
// hand-written script, so traces, hashing and replay work identically.
// Deterministic in (rung, sessions, churn, seed).
func Synthesize(rung string, sessions, churn int, seed int64) (*Model, error) {
	if _, err := topology.RungByName(rung); err != nil {
		return nil, fmt.Errorf("mc: %w", err)
	}
	if sessions < 2 {
		sessions = 2
	}
	if churn < 0 {
		churn = 0
	}
	rng := rand.New(rand.NewSource(seed ^ 0x6d63))
	var b strings.Builder
	fmt.Fprintf(&b, "# synthesized by internal/mc: rung=%s sessions=%d churn=%d seed=%d\n", rung, sessions, churn, seed)
	fmt.Fprintf(&b, "topology internet %s seed=%d hosts=%d\n", rung, seed, 2*sessions)
	for i := 0; i < sessions; i++ {
		fmt.Fprintf(&b, "session s%d h%d h%d\n", i, 2*i, 2*i+1)
	}
	// All joins race in one epoch; demands are drawn so some sessions are
	// demand-limited and others fight for the shared tiers.
	for i := 0; i < sessions; i++ {
		fmt.Fprintf(&b, "at 0ms join s%d demand=%dmbps\n", i, 5+rng.Intn(120))
	}
	// Churn rounds: each round picks a few sessions and has them leave and
	// rejoin (or change demand) at the same timestamp, so the departures'
	// teardown cascades race the arrivals' probe cascades.
	joined := make([]bool, sessions)
	for i := range joined {
		joined[i] = true
	}
	at := 50 * time.Millisecond
	for r := 0; r < churn; r++ {
		k := 1 + rng.Intn(3)
		used := make(map[int]bool, k)
		for j := 0; j < k; j++ {
			i := rng.Intn(sessions)
			if used[i] {
				continue // one op per session per epoch keeps the timeline valid
			}
			used[i] = true
			ms := at.Milliseconds()
			switch {
			case joined[i] && rng.Intn(2) == 0:
				fmt.Fprintf(&b, "at %dms leave s%d\n", ms, i)
				joined[i] = false
			case joined[i]:
				fmt.Fprintf(&b, "at %dms change s%d demand=%dmbps\n", ms, i, 5+rng.Intn(120))
			default:
				fmt.Fprintf(&b, "at %dms join s%d demand=%dmbps\n", ms, i, 5+rng.Intn(120))
				joined[i] = true
			}
		}
		at += time.Duration(20+rng.Intn(40)) * time.Millisecond
	}
	return FromScript(b.String())
}
