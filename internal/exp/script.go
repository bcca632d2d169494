package exp

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"bneck/internal/graph"
	"bneck/internal/rate"
	"bneck/internal/scenario"
	"bneck/internal/topology"
)

// cellScript writes the head of a cell's script: the named topology of size
// — its transit-stub network under scen, or with internet its internet rung
// — with two hosts per session, and count sessions named s<i> after their
// drawn pair, declared in source-router order (byRouter), which fixes their
// IDs and with them the simulator's tie-breaks. Every draw happens here, on
// the generator's own copy of the topology; the script carries the results
// as names. It returns the topology the pairs were drawn on and the pairs in
// declaration order.
func cellScript(b *strings.Builder, size topology.Params, scen topology.Scenario, internet bool, seed int64, count int) (topology.Hosted, [][2]graph.NodeID, error) {
	s, err := topology.ScaleByName(strings.ToLower(size.Name))
	if err != nil || s.Stub != size {
		return nil, nil, fmt.Errorf("exp: topology %q is not a named scale", size.Name)
	}
	var topo topology.Hosted
	if internet {
		topo, err = topology.GenerateInternet(s.Internet, seed)
		fmt.Fprintf(b, "topology internet %s", s.Rung)
	} else {
		topo, err = topology.Generate(size, scen, seed)
		fmt.Fprintf(b, "topology transit-stub %s %s", s.Name, strings.ToLower(scen.String()))
	}
	if err != nil {
		return nil, nil, err
	}
	pairs, err := drawPairs(topo, count)
	if err != nil {
		return nil, nil, err
	}
	g := topo.Topology()
	fmt.Fprintf(b, " seed=%d hosts=%d\n", seed, 2*count)
	declared := make([][2]graph.NodeID, 0, count)
	for _, i := range byRouter(g, pairs) {
		fmt.Fprintf(b, "session s%d %s %s\n", i, g.Node(pairs[i][0]).Name, g.Node(pairs[i][1]).Name)
		declared = append(declared, pairs[i])
	}
	return topo, declared, nil
}

// event is one scheduled session action, an `at` line of a script: op is
// "join", "leave" or "change", at its offset from the enclosing block's
// start, and demand is read for a join or a change.
type event struct {
	at      time.Duration
	op      string
	session int
	demand  rate.Rate
}

// draws schedules op for every listed session at an offset drawn uniformly
// from [0, window), each offset followed by the session's demand draw for a
// join or a change (a leave draws none), and sorts the events stably by
// offset. Schedules are deterministic given r.
func draws(op string, sessions []int, window time.Duration, demand func(*rand.Rand) rate.Rate, r *rand.Rand) []event {
	evs := make([]event, len(sessions))
	for i, s := range sessions {
		evs[i] = event{at: time.Duration(r.Int63n(int64(window))), op: op, session: s}
		if op != "leave" {
			evs[i].demand = demand(r)
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	return evs
}

// unbounded always demands +∞: greedy sessions.
func unbounded(*rand.Rand) rate.Rate { return rate.Inf }

// MixedDemands returns a demand draw that is +∞ with probability 1-p and
// otherwise uniform over [lo, hi] Mbps — the paper allows sessions to cap
// their requested rate.
func MixedDemands(p float64, lo, hi int64) func(*rand.Rand) rate.Rate {
	return func(r *rand.Rand) rate.Rate {
		if r.Float64() >= p {
			return rate.Inf
		}
		return rate.Mbps(lo + r.Int63n(hi-lo+1))
	}
}

// sample picks k distinct values of population by a permutation prefix drawn
// from r and returns them sorted. It panics if k > len(population).
func sample(population []int, k int, r *rand.Rand) []int {
	out := make([]int, k)
	for i, j := range r.Perm(len(population))[:k] {
		out[i] = population[j]
	}
	sort.Ints(out)
	return out
}

// span returns the session indexes [first, first+n).
func span(first, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = first + i
	}
	return out
}

// writeChurn writes session events as `at` lines.
func writeChurn(b *strings.Builder, events ...[]event) {
	for _, evs := range events {
		for _, ev := range evs {
			fmt.Fprintf(b, "at %dns %s s%d", ev.at, ev.op, ev.session)
			if ev.op != "leave" {
				fmt.Fprintf(b, " demand=%v", ev.demand)
			}
			b.WriteByte('\n')
		}
	}
}

// runScript parses a generated script and runs it on the simulator.
func runScript(src string) (*scenario.Result, error) {
	sc, err := scenario.Parse(src)
	if err != nil {
		return nil, err
	}
	return scenario.RunSim(sc)
}
