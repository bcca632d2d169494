package exp

import (
	"fmt"
	"strings"

	"bneck/internal/graph"
	"bneck/internal/scenario"
	"bneck/internal/topology"
	"bneck/internal/trace"
)

// cellScript writes the head of an Experiment 4 or 5 cell's script: the
// cell's transit-stub topology with two hosts per session, and count
// sessions named s<i> after their drawn pair, declared in PlaceSessions'
// order so that their IDs, and with them the simulator's tie-breaks, are
// the ones PlaceSessions gives. Every draw happens here, on the generator's
// own copy of the topology; the script carries the results as names. It returns the topology the pairs were
// drawn on and the pairs in declaration order.
func cellScript(b *strings.Builder, size topology.Params, scen topology.Scenario, seed int64, count int) (topology.Hosted, [][2]graph.NodeID, error) {
	if s, err := topology.ScaleByName(strings.ToLower(size.Name)); err != nil || s.Stub != size {
		return nil, nil, fmt.Errorf("exp: topology %q is not a named scale", size.Name)
	}
	topo, err := topology.Generate(size, scen, seed)
	if err != nil {
		return nil, nil, err
	}
	pairs, err := drawPairs(topo, count)
	if err != nil {
		return nil, nil, err
	}
	g := topo.Topology()
	fmt.Fprintf(b, "topology transit-stub %s %s seed=%d hosts=%d\n",
		strings.ToLower(size.Name), strings.ToLower(scen.String()), seed, 2*count)
	declared := make([][2]graph.NodeID, 0, count)
	for _, i := range byRouter(g, pairs) {
		fmt.Fprintf(b, "session s%d %s %s\n", i, g.Node(pairs[i][0]).Name, g.Node(pairs[i][1]).Name)
		declared = append(declared, pairs[i])
	}
	return topo, declared, nil
}

// writeChurn writes session events as `at` lines; their times are offsets
// from the enclosing block's start.
func writeChurn(b *strings.Builder, events ...[]trace.Event) {
	for _, evs := range events {
		for _, ev := range evs {
			fmt.Fprintf(b, "at %dns %s s%d", ev.At, ev.Kind, ev.Session)
			if ev.Kind != trace.Leave {
				fmt.Fprintf(b, " demand=%v", ev.Demand)
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
