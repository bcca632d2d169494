package main

import (
	"testing"

	"bneck/internal/core"
	"bneck/internal/graph"
	"bneck/internal/rate"
	"bneck/internal/waterfill"
)

// The pump on a three-link line: s1 crosses all three links, s2 only the
// 10 Mbps middle one, s3 the last with a 3 Mbps demand. It must go silent
// with exactly the rates waterfill.Solve assigns — through a join, a demand
// change, a capacity change and a leave.
func TestPumpConvergesToOracle(t *testing.T) {
	caps := []rate.Rate{rate.Mbps(100), rate.Mbps(10), rate.Mbps(40)}
	capOf := func(l graph.LinkID) rate.Rate { return caps[l] }
	p := newPump(capOf)
	cur := []sessState{
		{id: 1, path: graph.Path{0, 1, 2}, demand: rate.Inf},
		{id: 2, path: graph.Path{1}, demand: rate.Inf},
		{id: 3, path: graph.Path{2}, demand: rate.Mbps(3)},
	}
	check := func(stage string) {
		t.Helper()
		p.drain()
		inst, _ := assemble(cur, capOf)
		want, err := waterfill.Solve(inst)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range cur {
			got, ok := p.rate(s.id)
			if !ok || !got.Equal(want[i]) {
				t.Fatalf("%s: session %d rate %v (%t), oracle %v", stage, s.id, got, ok, want[i])
			}
		}
		for l, task := range p.links {
			if task != nil && !task.Stable() {
				t.Fatalf("%s: link %d unstable after the pump drained", stage, l)
			}
		}
	}
	for _, s := range cur {
		p.join(s.id, s.path, s.demand)
	}
	check("join")
	if got, _ := p.rate(1); !got.Equal(rate.Mbps(5)) {
		t.Fatalf("s1 = %v, want 5 Mbps (half of the middle link)", got)
	}

	cur[1].demand = rate.Mbps(2)
	p.change(2, rate.Mbps(2))
	check("change")

	caps[1] = rate.Mbps(4)
	p.setCapacity(1)
	check("capacity")

	p.leave(2)
	cur = []sessState{cur[0], cur[2]}
	check("leave")

	if p.wirePackets == 0 || p.tasks != 3 {
		t.Fatalf("pump counted %d packets over %d tasks", p.wirePackets, p.tasks)
	}
	var _ core.Emitter = p
}
