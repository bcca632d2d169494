package main

import (
	"bneck/internal/graph"
	"bneck/internal/rate"
)

// runTracedLive is the traced repetition of live_churn: the same closed
// loop under spans, with the layer probes fed from the sessions' own state
// after every epoch. The live transport has no packet hook, so the replays
// that need the packet stream (sim, rate, metrics) do not apply.
func runTracedLive(p *plan, tr *tracer) (*repResult, error) {
	var probes *layerProbes
	var last *liveRun
	res, err := runLive(p, tr, func(e int, lr *liveRun) {
		if probes == nil {
			probes = newLayerProbes(func(l graph.LinkID) rate.Rate { return lr.g.Link(l).Capacity })
		}
		last = lr
		tr.begin("live.Rates")
		granted := lr.rt.Rates()
		tr.end()
		tr.begin("probes")
		var cur []sessState
		for i, s := range lr.sessions {
			if !s.Active() {
				continue
			}
			id := s.ID()
			cur = append(cur, sessState{id: id, path: s.Path(), demand: lr.demand[i], rate: granted[id]})
		}
		probes.epoch(cur, nil, tr)
		tr.end()
	})
	if err != nil {
		return nil, err
	}
	probes.finish(res)

	L := make(map[string]float64)
	res.Layer = L
	L["topology.generate_ms"] = ms(tr.total("topology.Generate"))
	L["topology.addhosts_ms"] = ms(tr.total("topology.AddHosts"))
	L["graph.hostpath_us"] = us(tr.mean("graph.HostPath"))
	probes.layerMetrics(L)
	L["core.share"] = L["core.pump_ns_per_pkt"] / (res.RunS * 1e9 / float64(res.Packets))

	L["live.join_call_us"] = us(mean(last.joinCalls))
	L["live.topology_call_ms"] = ms(mean(append(tr.durations("live.FailLinks"), tr.durations("live.RestoreLinks")...)))
	L["live.wait_quiescent_ms"] = ms(tr.mean("live.WaitQuiescent"))
	L["live.rates_read_us"] = us(tr.mean("live.Rates"))
	L["live.packets"] = float64(res.Packets)
	L["live.goroutines"] = float64(last.goroutinesMax)
	L["live.incarnations"] = float64(last.incarnations)
	L["live.migrations"] = float64(last.rt.Migrations())
	return res, nil
}
