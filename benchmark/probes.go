package main

import (
	"math/big"
	"runtime"
	"sort"
	"time"

	"bneck/internal/core"
	"bneck/internal/graph"
	"bneck/internal/metrics"
	"bneck/internal/rate"
	"bneck/internal/sim"
	"bneck/internal/waterfill"
)

// sessState is one active session incarnation at the end of an epoch, as
// either transport reports it. The layer probes see the run only through
// these snapshots, so they work for the simulated and the live workloads
// alike and never depend on how a transport migrates sessions.
type sessState struct {
	id     core.SessionID
	path   graph.Path
	demand rate.Rate
	rate   rate.Rate // what the transport granted
}

// layerProbes replays a traced run, epoch by epoch, through the layers
// below the transport: the protocol tasks under a synchronous pump (core),
// the full oracle (waterfill.Solve) and the incremental oracle. Each epoch
// it turns the difference between two snapshots into joins, leaves, demand
// changes and capacity changes and feeds those to all three.
type layerProbes struct {
	capOf func(graph.LinkID) rate.Rate
	prev  []sessState // sorted by id

	pump       *pump
	pumpWall   time.Duration
	pumpAllocs uint64
	pumpAgrees bool

	inc       *waterfill.Incremental
	incLink   map[graph.LinkID]int
	incSess   map[core.SessionID]int
	incAgrees bool

	solveMs, flushMs []float64
	// The largest oracle instance seen, and how its sessions spread over
	// its links.
	instSessions, instLinks int
	perLinkMean             float64
	perLinkMax              int
}

func newLayerProbes(capOf func(graph.LinkID) rate.Rate) *layerProbes {
	return &layerProbes{
		capOf: capOf, pump: newPump(capOf), pumpAgrees: true,
		inc: waterfill.NewIncremental(), incLink: make(map[graph.LinkID]int),
		incSess: make(map[core.SessionID]int), incAgrees: true,
	}
}

// epoch advances every probe from the previous snapshot to cur. capChanged
// lists the links whose capacity was reconfigured in between.
func (lp *layerProbes) epoch(cur []sessState, capChanged []graph.LinkID, tr *tracer) {
	sort.Slice(cur, func(i, j int) bool { return cur[i].id < cur[j].id })
	var joins, leaves, changes []sessState
	i, j := 0, 0
	for i < len(lp.prev) || j < len(cur) {
		switch {
		case j == len(cur) || (i < len(lp.prev) && lp.prev[i].id < cur[j].id):
			leaves = append(leaves, lp.prev[i])
			i++
		case i == len(lp.prev) || cur[j].id < lp.prev[i].id:
			joins = append(joins, cur[j])
			j++
		default:
			if !cur[j].demand.Equal(lp.prev[i].demand) {
				changes = append(changes, cur[j])
			}
			i++
			j++
		}
	}
	lp.prev = cur

	// core: the same API calls through the tasks alone.
	tr.begin("probe.core_pump")
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for _, s := range leaves {
		lp.pump.leave(s.id)
	}
	for _, l := range capChanged {
		lp.pump.setCapacity(l)
	}
	for _, s := range changes {
		lp.pump.change(s.id, s.demand)
	}
	for _, s := range joins {
		lp.pump.join(s.id, s.path, s.demand)
	}
	lp.pump.drain()
	lp.pumpWall += time.Since(t0)
	runtime.ReadMemStats(&m1)
	lp.pumpAllocs += m1.Mallocs - m0.Mallocs
	tr.end()
	for _, s := range cur {
		if r, ok := lp.pump.rate(s.id); !ok || !r.Equal(s.rate) {
			lp.pumpAgrees = false
		}
	}

	// waterfill: one full solve of the instance the transport validated.
	var want []rate.Rate
	if len(cur) > 0 {
		inst, perLink := assemble(cur, lp.capOf)
		tr.begin("waterfill.Solve")
		var err error
		want, err = waterfill.Solve(inst)
		lp.solveMs = append(lp.solveMs, ms(tr.end()))
		if err != nil {
			lp.incAgrees = false
		}
		if len(inst.Sessions) > lp.instSessions {
			lp.instSessions, lp.instLinks = len(inst.Sessions), len(inst.Capacity)
			total := 0
			lp.perLinkMax = 0
			for _, n := range perLink {
				total += n
				lp.perLinkMax = max(lp.perLinkMax, n)
			}
			lp.perLinkMean = float64(total) / float64(len(perLink))
		}
	}

	// waterfill.Incremental: the same deltas, then one flush.
	for _, s := range leaves {
		lp.incLeave(s.id)
	}
	for _, l := range capChanged {
		if h, ok := lp.incLink[l]; ok {
			lp.inc.SetCapacity(h, lp.capOf(l))
		}
	}
	for _, s := range changes {
		lp.incLeave(s.id)
		lp.incJoin(s)
	}
	for _, s := range joins {
		lp.incJoin(s)
	}
	tr.begin("waterfill.Incremental.Flush")
	err := lp.inc.Flush()
	lp.flushMs = append(lp.flushMs, ms(tr.end()))
	if err != nil {
		lp.incAgrees = false
		return
	}
	for k, s := range cur {
		if want != nil && !lp.inc.Rate(lp.incSess[s.id]).Equal(want[k]) {
			lp.incAgrees = false
		}
	}
}

func (lp *layerProbes) incJoin(s sessState) {
	handles := make([]int, len(s.path))
	for k, l := range s.path {
		h, ok := lp.incLink[l]
		if !ok {
			h = lp.inc.AddLink(lp.capOf(l))
			lp.incLink[l] = h
		}
		handles[k] = h
	}
	lp.incSess[s.id] = lp.inc.SessionJoin(s.demand, handles)
}

func (lp *layerProbes) incLeave(id core.SessionID) {
	lp.inc.SessionLeave(lp.incSess[id])
	delete(lp.incSess, id)
}

// assemble builds the oracle instance of a snapshot and counts the sessions
// crossing each of its links.
func assemble(cur []sessState, capOf func(graph.LinkID) rate.Rate) (waterfill.Instance, []int) {
	var inst waterfill.Instance
	var perLink []int
	idx := make(map[graph.LinkID]int)
	for _, s := range cur {
		ws := waterfill.Session{Demand: s.demand, Path: make([]int, len(s.path))}
		for k, l := range s.path {
			i, ok := idx[l]
			if !ok {
				i = len(inst.Capacity)
				idx[l] = i
				inst.Capacity = append(inst.Capacity, capOf(l))
				perLink = append(perLink, 0)
			}
			ws.Path[k] = i
			perLink[i]++
		}
		inst.Sessions = append(inst.Sessions, ws)
	}
	return inst, perLink
}

// finish turns the probes' cross-checks into counted checks.
func (lp *layerProbes) finish(res *repResult) {
	res.check(lp.pumpAgrees, "core pump: rates differ from the transport's in some epoch")
	res.check(lp.incAgrees, "oracles: waterfill.Solve and waterfill.Incremental disagree in some epoch")
}

func (lp *layerProbes) layerMetrics(L map[string]float64) {
	pk := float64(lp.pump.wirePackets)
	L["core.pump_packets"] = pk
	if pk > 0 {
		L["core.pump_ns_per_pkt"] = float64(lp.pumpWall) / pk
		L["core.pump_allocs_per_pkt"] = float64(lp.pumpAllocs) / pk
	}
	L["core.link_tasks"] = float64(lp.pump.tasks)
	L["core.sessions_per_link_mean"] = lp.perLinkMean
	L["core.sessions_per_link_max"] = float64(lp.perLinkMax)
	L["waterfill.solve_ms"] = median(lp.solveMs)
	L["waterfill.instance_sessions"] = float64(lp.instSessions)
	L["waterfill.instance_links"] = float64(lp.instLinks)
	L["waterfill.incremental_flush_ms"] = median(lp.flushMs)
}

// replayResult is what the engine-only replay measured.
type replayResult struct {
	wall     time.Duration
	events   uint64
	depthMax int
}

// replaySched keys a wire's deliveries the way the transport's classic
// engine adapter does (creator = sending node, owner = receiving node).
type replaySched struct {
	eng      *sim.Engine
	from, to int32
}

func (s replaySched) Now() sim.Time            { return s.eng.Now() }
func (s replaySched) At(t sim.Time, fn func()) { s.eng.SendFromTo(s.from, s.to, t, fn) }

// replaySim pushes the recorded (send time, link) stream through a fresh
// sim.Engine and one sim.Wire per link with deliveries that do nothing. One
// self-rescheduling event feeds the sends at their recorded times, so the
// event queue is as deep as it was in the real run. Hand-offs between a
// source and its access-link task, which are engine events but cross no
// wire, are replayed as the local events they are.
func replaySim(g *graph.Graph, recs []pktRec) replayResult {
	cfgBits := float64(512) // network.DefaultConfig().ControlPacketBits
	eng := sim.New()
	wires := make([]*sim.Wire, g.NumLinks())
	isHost := func(n graph.NodeID) bool { return g.Node(n).Kind == graph.Host }
	noop := func() {}
	handoff := make(map[graph.NodeID]func()) // an upstream packet reaching its source host
	var res replayResult
	next := 0
	var feed func()
	feed = func() {
		now := eng.Now()
		for next < len(recs) && recs[next].at <= now {
			r := recs[next]
			next++
			w := wires[r.link]
			if w == nil {
				l := g.Link(r.link)
				tx := time.Duration(cfgBits / l.Capacity.Float64() * float64(time.Second))
				w = sim.NewWire(replaySched{eng, int32(l.From), int32(l.To)}, l.Propagation, tx)
				wires[r.link] = w
			}
			deliver := noop
			switch upstream := r.typ == core.PktResponse || r.typ == core.PktUpdate || r.typ == core.PktBottleneck; {
			case !upstream && isHost(g.LinkFrom(r.link)):
				eng.SendFrom(int32(g.LinkFrom(r.link)), now, noop) // source → access-link task
			case upstream && isHost(g.LinkTo(r.link)):
				host := g.LinkTo(r.link)
				if handoff[host] == nil {
					handoff[host] = func() { eng.SendFrom(int32(host), eng.Now(), noop) }
				}
				deliver = handoff[host] // access-link task → source
			}
			w.Send(deliver)
		}
		res.depthMax = max(res.depthMax, eng.Pending())
		if next < len(recs) {
			eng.At(recs[next].at, feed)
		}
	}
	if len(recs) == 0 {
		return res
	}
	t0 := time.Now()
	eng.At(recs[0].at, feed)
	eng.Run()
	res.wall = time.Since(t0)
	res.events = eng.Events()
	return res
}

var rateSink int

// probeRate runs the arithmetic a link task does per packet — Σλ, the
// bottleneck estimate (C − Σλ)/n and a comparison — over the λ operands
// the packets of the run carried, and reports how many of those operands
// have left the 32-bit range in which the int64 fast path cannot overflow.
func probeRate(lambdas []rate.Rate, L map[string]float64) {
	if len(lambdas) == 0 {
		return
	}
	wide := 0
	for _, r := range lambdas {
		q, ok := new(big.Rat).SetString(r.Key())
		if ok && (q.Num().BitLen() > 32 || q.Denom().BitLen() > 32) {
			wide++
		}
	}
	L["rate.wide_operand_share"] = float64(wide) / float64(len(lambdas))

	capacity := rate.Mbps(100_000)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	sum, n, sink := rate.Zero, 0, 0
	for _, r := range lambdas {
		if n == 8 { // a fresh link every eight sessions keeps C − Σλ positive
			sum, n = rate.Zero, 0
		}
		sum = sum.Add(r)
		n++
		be := capacity.Sub(sum).DivInt(n)
		sink += be.Cmp(r)
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	rateSink = sink
	ops := float64(4 * len(lambdas)) // Add, Sub, DivInt, Cmp
	L["rate.replay_ns_per_op"] = float64(wall) / ops
	L["rate.replay_allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / ops
}

// probeMetricsRecord is the per-packet counter alone: PacketStats.Record
// over the recorded (type, time) stream, with the transport's bin size.
func probeMetricsRecord(recs []pktRec) float64 {
	if len(recs) == 0 {
		return 0
	}
	ps := metrics.NewPacketStats(5 * time.Millisecond)
	t0 := time.Now()
	for _, r := range recs {
		ps.Record(r.typ, r.at)
	}
	return float64(time.Since(t0)) / float64(len(recs))
}

// probeHostPathSorted resolves the plan's host pairs again on a cold
// resolver, grouped by source router — the order exp.PlaceSessions uses and
// the one the resolver's tree cache is built for. Set-up resolves them in
// host order; a fix for one order must not cost the other.
func probeHostPathSorted(tn *tracedNet, tr *tracer) float64 {
	pairs := make([][2]graph.NodeID, len(tn.p.sessions))
	for i, s := range tn.p.sessions {
		pairs[i] = [2]graph.NodeID{tn.hosts[s[0]], tn.hosts[s[1]]}
	}
	sort.SliceStable(pairs, func(i, j int) bool {
		return tn.g.HostRouter(pairs[i][0]) < tn.g.HostRouter(pairs[j][0])
	})
	r := graph.NewResolver(tn.g, 256)
	tr.begin("probe.hostpath_sorted")
	for _, p := range pairs {
		if _, err := r.HostPath(p[0], p[1]); err != nil {
			break // cannot happen on a connected, unfailed graph
		}
	}
	return us(tr.end()) / float64(len(pairs))
}

// probeHostPathCold measures the first HostPath call after a topology
// mutation has invalidated the resolver's cached trees — what a migration
// pays. It runs after the last epoch, on the run's own graph: fail a link,
// resolve, restore.
func probeHostPathCold(tn *tracedNet, tr *tracer) float64 {
	const samples = 64
	links := tn.links
	if links == nil {
		links = routerLinkPairs(tn.g) // hand-built chains: the plan fails no link
	}
	var total time.Duration
	n := 0
	for k := 0; k < samples && k < len(tn.p.sessions) && len(links) > 0; k++ {
		s := tn.p.sessions[k*len(tn.p.sessions)/samples%len(tn.p.sessions)]
		src, dst := tn.hosts[s[0]], tn.hosts[s[1]]
		if _, err := tn.resolver.HostPath(src, dst); err != nil {
			continue // warm the tree; skip pairs the run's failures cut off
		}
		l := links[(k*7919)%len(links)]
		if !tn.g.LinkUp(l[0]) {
			continue
		}
		tn.g.FailLink(l[0])
		tn.g.FailLink(l[1])
		tr.begin("graph.HostPath.cold")
		_, err := tn.resolver.HostPath(src, dst)
		d := tr.end()
		tn.g.RestoreLink(l[0])
		tn.g.RestoreLink(l[1])
		if err == nil {
			total += d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return us(total) / float64(n)
}
