package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"bneck/internal/core"
	"bneck/internal/graph"
	"bneck/internal/network"
	"bneck/internal/rate"
	"bneck/internal/sim"
	"bneck/internal/topology"
)

// tracedNet drives a simulated plan through the layers behind the public
// API — topology, graph, network on the classic sim engine, all with the
// defaults bneck.newSimulation picks — so that the benchmark can wrap each
// call into a layer in a span and record every packet the transport sends.
// The digest check proves it simulates exactly what publicNet does.
type tracedNet struct {
	p        *plan
	tr       *tracer
	g        *graph.Graph
	eng      *sim.Engine
	net      *network.Network
	resolver *graph.Resolver
	hosts    []graph.NodeID
	sessions []*network.Session
	links    [][2]graph.LinkID
	rec      *recorder

	lastRates  map[core.SessionID]rate.Rate
	capChanged []graph.LinkID // links reconfigured since the last snapshot
	oracleMs   []float64
	validateMs []float64
	// Allocator activity inside network.Run, summed over the epochs.
	mallocs, allocBytes uint64
	gcCycles            uint32
}

// pktRec is one packet as network.Config.OnPacket reported it.
type pktRec struct {
	at   time.Duration
	link graph.LinkID
	typ  core.PacketType
}

// recorder keeps the packet stream of a traced run for the layer replays.
type recorder struct {
	recs []pktRec
	// lambdas are the finite rate operands the packets carried, capped so
	// that a long run does not hold them all.
	lambdas []rate.Rate
}

const maxLambdas = 1 << 20

// newRecorder sizes the stream for expect packets up front, so that the
// run's allocation counters are not charged for the recording.
func newRecorder(expect uint64) *recorder {
	r := &recorder{recs: make([]pktRec, 0, expect+1024)}
	r.lambdas = make([]rate.Rate, 0, min(expect+1024, maxLambdas))
	return r
}

func (r *recorder) onPacket(link graph.LinkID, pkt core.Packet, at sim.Time) {
	r.recs = append(r.recs, pktRec{at, link, pkt.Type})
	switch pkt.Type {
	case core.PktJoin, core.PktProbe, core.PktResponse:
		if !pkt.Rate.IsInf() && len(r.lambdas) < maxLambdas {
			r.lambdas = append(r.lambdas, pkt.Rate)
		}
	}
}

var (
	stubParams     = map[int]topology.Params{1: topology.Small, 2: topology.Medium, 3: topology.Big}
	internetParams = map[int]topology.InternetParams{1: topology.InternetPaper, 2: topology.InternetMetro, 3: topology.InternetGlobal}
)

func buildTraced(p *plan, tr *tracer, rec *recorder) (*tracedNet, error) {
	n := &tracedNet{p: p, tr: tr, rec: rec}
	var topo topology.Hosted
	var err error
	switch p.topo {
	case topoChains:
		tr.begin("graph.build")
		n.buildChains()
		tr.end()
	case topoTransitStub:
		scen := topology.LAN
		if p.wan {
			scen = topology.WAN
		}
		tr.begin("topology.Generate")
		topo, err = topology.Generate(stubParams[p.size], scen, p.topoSeed)
		tr.end()
	case topoInternet:
		tr.begin("topology.Generate")
		topo, err = topology.GenerateInternet(internetParams[p.size], p.topoSeed)
		tr.end()
	}
	if err != nil {
		return nil, err
	}
	if topo != nil {
		tr.begin("topology.AddHosts")
		n.hosts = topo.AddHosts(p.hosts)
		tr.end()
		n.g = topo.Topology()
		n.links = routerLinkPairs(n.g)
	}
	cfg := network.DefaultConfig()
	cfg.OnPacket = rec.onPacket
	n.eng = sim.New()
	n.net = network.New(n.g, n.eng, cfg)
	n.resolver = graph.NewResolver(n.g, 256)
	return n, nil
}

// buildChains adds nodes and links in exactly the order publicNet's builder
// calls do: node IDs key the engine's event order.
func (n *tracedNet) buildChains() {
	p := n.p
	n.g = graph.New()
	for c := 0; c < p.chains; c++ {
		src := n.g.AddHost(fmt.Sprintf("c%d.src", c))
		prev := src
		for r := 0; r < p.chainRouters; r++ {
			next := n.g.AddRouter(fmt.Sprintf("c%d.r%d", c, r))
			n.g.Connect(prev, next, chainCapacity, p.chainProp(c, r))
			prev = next
		}
		dst := n.g.AddHost(fmt.Sprintf("c%d.dst", c))
		n.g.Connect(prev, dst, chainCapacity, p.chainProp(c, p.chainRouters))
		n.hosts = append(n.hosts, src, dst)
	}
}

func (n *tracedNet) addSession(src, dst int) error {
	n.tr.begin("graph.HostPath")
	path, err := n.resolver.HostPath(n.hosts[src], n.hosts[dst])
	n.tr.end()
	if err != nil {
		return err
	}
	n.tr.begin("network.NewSession")
	s, err := n.net.NewSession(n.hosts[src], n.hosts[dst], path)
	n.tr.end()
	if err != nil {
		return err
	}
	n.sessions = append(n.sessions, s)
	return nil
}

func (n *tracedNet) join(sess int, at time.Duration, demand rate.Rate) {
	n.net.ScheduleJoin(n.sessions[sess], at, demand)
}
func (n *tracedNet) leave(sess int, at time.Duration) { n.net.ScheduleLeave(n.sessions[sess], at) }
func (n *tracedNet) change(sess int, at time.Duration, demand rate.Rate) {
	n.net.ScheduleChange(n.sessions[sess], at, demand)
}

func (n *tracedNet) rate(sess int) (rate.Rate, bool) {
	s := n.sessions[sess]
	if !s.Active() {
		return rate.Rate{}, false
	}
	return s.Rate()
}

func (n *tracedNet) routerLinks() int { return len(n.links) }
func (n *tracedNet) fail(link int, at time.Duration) {
	n.net.ScheduleLinkFail(at, n.links[link][0], n.links[link][1])
}
func (n *tracedNet) restore(link int, at time.Duration) {
	n.net.ScheduleLinkRestore(at, n.links[link][0], n.links[link][1])
}
func (n *tracedNet) shrink(link int, at time.Duration, by int) {
	ab, ba := n.links[link][0], n.links[link][1]
	n.net.ScheduleSetCapacity(at, n.g.Link(ab).Capacity.DivInt(by), ab, ba)
	n.capChanged = append(n.capChanged, ab, ba)
}

func (n *tracedNet) now() time.Duration { return n.eng.Now() }

// run does what bneck.Simulation.RunToQuiescence does, so traced and
// untraced packets per second compare like with like.
func (n *tracedNet) run() (time.Duration, uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n.tr.begin("network.Run")
	q := n.net.Run()
	n.tr.end()
	runtime.ReadMemStats(&m1)
	n.mallocs += m1.Mallocs - m0.Mallocs
	n.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	n.gcCycles += m1.NumGC - m0.NumGC
	rates := make(map[core.SessionID]rate.Rate)
	for _, s := range n.net.Sessions() {
		if !s.Active() {
			continue
		}
		if r, ok := s.Rate(); ok {
			rates[s.ID] = r
		}
	}
	n.lastRates = rates
	return q, n.net.Stats().Total()
}

func (n *tracedNet) rates() []idRate {
	out := make([]idRate, 0, len(n.lastRates))
	for id, r := range n.lastRates {
		out = append(out, idRate{int64(id), r})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// validate times the oracle alone and then the whole validation, which
// solves again: the difference is the transport's own checking.
func (n *tracedNet) validate() error {
	n.tr.begin("network.Oracle")
	_, err := n.net.Oracle()
	n.oracleMs = append(n.oracleMs, ms(n.tr.end()))
	if err != nil {
		return err
	}
	n.tr.begin("network.Validate")
	err = n.net.Validate()
	n.validateMs = append(n.validateMs, ms(n.tr.end()))
	return err
}

// snapshot lists the live incarnations — what the layer probes replay.
func (n *tracedNet) snapshot() []sessState {
	var out []sessState
	for _, s := range n.net.Sessions() {
		if s.Current() != s || !s.Active() {
			continue // superseded by a migration, or not joined
		}
		r, _ := s.Rate()
		out = append(out, sessState{id: s.ID, path: s.Path, demand: s.Demand(), rate: r})
	}
	return out
}

// runTracedRep is the traced repetition of one workload: the run itself
// under spans and packet recording, then every layer probe on what it
// recorded. It writes the spans to o.outDir.
func runTracedRep(p *plan, o options) (*repResult, error) {
	tr := newTracer(p.workload)
	var res *repResult
	var err error
	if p.live {
		res, err = runTracedLive(p, tr)
	} else {
		res, err = runTracedSim(p, tr, o)
	}
	if err != nil {
		return nil, err
	}
	path, err := tr.write(o.outDir)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans in %s\n", len(tr.spans), path)
	return res, nil
}

func runTracedSim(p *plan, tr *tracer, o options) (*repResult, error) {
	rec := newRecorder(o.expectPackets)
	var tn *tracedNet
	var probes *layerProbes
	var sortedUs float64

	res, err := runSim(p, func() (simNet, error) {
		var err error
		tn, err = buildTraced(p, tr, rec)
		if err != nil {
			return nil, err
		}
		probes = newLayerProbes(func(l graph.LinkID) rate.Rate { return tn.g.Link(l).Capacity })
		return tn, nil
	}, tr, func(e int) {
		tr.begin("probes")
		if e == 0 {
			// The graph is still as set-up left it: epoch 0 only joins.
			sortedUs = probeHostPathSorted(tn, tr)
		}
		probes.epoch(tn.snapshot(), tn.capChanged, tr)
		tn.capChanged = tn.capChanged[:0]
		tr.end()
	})
	if err != nil {
		return nil, err
	}

	res.check(o.expectPackets == 0 || res.Packets == o.expectPackets,
		"traced run sent %d packets, untraced run %d", res.Packets, o.expectPackets)
	res.check(o.expectDigest == "" || res.Digest == o.expectDigest,
		"traced run digest %s, untraced run %s", res.Digest, o.expectDigest)
	res.check(uint64(len(rec.recs)) == res.Packets, "recorded %d packets of %d", len(rec.recs), res.Packets)
	probes.finish(res)

	L := make(map[string]float64)
	res.Layer = L
	pk := float64(res.Packets)
	runNs := res.RunS * 1e9 / pk
	L["topology.generate_ms"] = ms(tr.total("topology.Generate"))
	L["topology.addhosts_ms"] = ms(tr.total("topology.AddHosts"))
	L["graph.hostpath_us"] = us(tr.mean("graph.HostPath"))
	L["graph.hostpath_sorted_us"] = sortedUs
	L["graph.hostpath_cold_us"] = probeHostPathCold(tn, tr)

	L["network.run_ns_per_pkt"] = runNs
	L["network.allocs_per_pkt"] = float64(tn.mallocs) / pk
	L["network.alloc_bytes_per_pkt"] = float64(tn.allocBytes) / pk
	L["network.gc_cycles"] = float64(tn.gcCycles)
	L["network.validate_self_ms"] = median(tn.validateMs) - median(tn.oracleMs)
	L["network.packets"] = pk
	L["network.pkts_per_session"] = pk / float64(len(p.sessions))
	L["network.virt_quiescence_us"] = median(res.VirtUs)
	stats := tn.net.Stats()
	for t := core.PktJoin; t <= core.PktLeave; t++ {
		L["network.pkts."+strings.ToLower(t.String())] = float64(stats.ByType(t))
	}
	L["network.migrations"] = float64(tn.net.Migrations())
	L["network.stranded"] = float64(tn.net.StrandedSessions())
	L["network.reconfig_pkts"] = float64(tn.net.ReconfigPackets())

	tr.setEpoch(-1)
	tr.begin("probe.sim_replay")
	rp := replaySim(tn.g, rec.recs)
	tr.end()
	simNs := float64(rp.wall) / pk
	L["sim.replay_ns_per_event"] = float64(rp.wall) / float64(rp.events)
	L["sim.replay_events"] = float64(rp.events)
	L["sim.queue_depth_max"] = float64(rp.depthMax)
	L["sim.share"] = simNs / runNs

	probes.layerMetrics(L)
	L["core.share"] = L["core.pump_ns_per_pkt"] / runNs
	L["network.self_ns_per_pkt"] = runNs - simNs - L["core.pump_ns_per_pkt"]

	tr.begin("probe.rate_replay")
	probeRate(rec.lambdas, L)
	tr.end()
	tr.begin("probe.metrics_record")
	L["metrics.record_ns"] = probeMetricsRecord(rec.recs)
	tr.end()
	return res, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
