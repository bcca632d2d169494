package exp

import (
	"fmt"
	"strings"

	"bneck/internal/graph"
	"bneck/internal/scenario"
	"bneck/internal/topology"
	"bneck/internal/trace"
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
