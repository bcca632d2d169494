package main

import (
	"fmt"
	"sort"
	"time"

	"bneck"
)

// publicNet drives a simulated plan through the exported bneck API with
// default options — what a user of the library gets. Every end-to-end
// number of the simulated workloads is measured here, so this file imports
// nothing internal and keeps working when the engines behind the API change.
type publicNet struct {
	sim      *bneck.Simulation
	hosts    []bneck.Node
	sessions []*bneck.Session
	links    []*bneck.Link
	last     bneck.Report
}

// buildPublic sets the plan's network up. opts is empty for every
// end-to-end run; the sharded probe of the traced run passes WithShards.
func buildPublic(p *plan, opts ...bneck.Option) (simNet, error) {
	n := &publicNet{}
	var err error
	switch p.topo {
	case topoChains:
		err = n.buildChains(p, opts)
	case topoTransitStub:
		scen := bneck.LAN
		if p.wan {
			scen = bneck.WAN
		}
		n.sim, err = bneck.NewTransitStub(bneck.Size(p.size), scen, p.topoSeed, opts...)
	case topoInternet:
		n.sim, err = bneck.NewInternet(bneck.Size(p.size), p.topoSeed, opts...)
	}
	if err != nil {
		return nil, err
	}
	if p.topo != topoChains {
		if n.hosts, err = n.sim.AddHosts(p.hosts); err != nil {
			return nil, err
		}
		n.links = n.sim.RouterLinks()
	}
	return n, nil
}

// buildChains lays out p.chains disjoint chains host–routers–host. Host 2c
// is chain c's source, host 2c+1 its destination.
func (n *publicNet) buildChains(p *plan, opts []bneck.Option) error {
	b := bneck.NewNetwork()
	for c := 0; c < p.chains; c++ {
		src := b.Host(fmt.Sprintf("c%d.src", c))
		prev := src
		for r := 0; r < p.chainRouters; r++ {
			next := b.Router(fmt.Sprintf("c%d.r%d", c, r))
			b.Link(prev, next, chainCapacity, p.chainProp(c, r))
			prev = next
		}
		dst := b.Host(fmt.Sprintf("c%d.dst", c))
		b.Link(prev, dst, chainCapacity, p.chainProp(c, p.chainRouters))
		n.hosts = append(n.hosts, src, dst)
	}
	var err error
	n.sim, err = b.Build(opts...)
	return err
}

func (n *publicNet) addSession(src, dst int) error {
	s, err := n.sim.Session(n.hosts[src], n.hosts[dst])
	if err != nil {
		return err
	}
	n.sessions = append(n.sessions, s)
	return nil
}

func (n *publicNet) join(sess int, at time.Duration, demand bneck.Rate) {
	n.sessions[sess].JoinAt(at, demand)
}
func (n *publicNet) leave(sess int, at time.Duration) { n.sessions[sess].LeaveAt(at) }
func (n *publicNet) change(sess int, at time.Duration, demand bneck.Rate) {
	n.sessions[sess].ChangeAt(at, demand)
}

func (n *publicNet) rate(sess int) (bneck.Rate, bool) {
	s := n.sessions[sess]
	if !s.Active() {
		return bneck.Rate{}, false
	}
	return s.Rate()
}

func (n *publicNet) routerLinks() int                   { return len(n.links) }
func (n *publicNet) fail(link int, at time.Duration)    { n.links[link].FailAt(at) }
func (n *publicNet) restore(link int, at time.Duration) { n.links[link].RestoreAt(at) }
func (n *publicNet) shrink(link int, at time.Duration, by int) {
	l := n.links[link]
	l.SetCapacityAt(at, l.Capacity().DivInt(by))
}

func (n *publicNet) now() time.Duration { return n.sim.Now() }

func (n *publicNet) run() (time.Duration, uint64) {
	n.last = n.sim.RunToQuiescence()
	return n.last.Quiescence, n.last.Packets
}

func (n *publicNet) rates() []idRate {
	out := make([]idRate, 0, len(n.last.Rates))
	for id, r := range n.last.Rates {
		out = append(out, idRate{int64(id), r})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

func (n *publicNet) validate() error { return n.sim.Validate() }

// shardOption turns the child's -shards flag into a bneck option; negative
// (the default) means none, which is how every end-to-end run is built.
func shardOption(n int) []bneck.Option {
	if n < 0 {
		return nil
	}
	return []bneck.Option{bneck.WithShards(n)}
}
