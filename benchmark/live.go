package main

import (
	"runtime"
	"sync"
	"time"

	"bneck/internal/graph"
	"bneck/internal/live"
	"bneck/internal/rate"
	"bneck/internal/topology"
)

// liveRun is the state of one live_churn repetition. The live runtime has
// no public wrapper, so this workload — end-to-end and traced alike — uses
// internal/live directly; tracing only adds spans around the same calls.
type liveRun struct {
	g        *graph.Graph
	rt       *live.Runtime
	sessions []*live.Session
	demand   []rate.Rate
	links    [][2]graph.LinkID // router–router duplex pairs, insertion order

	goroutinesMax int
	incarnations  int // live incarnations after the last epoch
	// joinCalls holds the duration of every Session.Join call; recorded only
	// when the repetition is traced.
	timeCalls bool
	joinCalls []time.Duration
}

// runLive executes the live_churn plan as a closed loop: an epoch's calls
// are issued from nproc client goroutines, and the next epoch starts only
// after WaitQuiescent has returned and the epoch is validated.
func runLive(p *plan, tr *tracer, after func(epoch int, lr *liveRun)) (*repResult, error) {
	res := &repResult{Workload: p.workload, Seed: p.seed}
	lr := &liveRun{timeCalls: tr != nil}

	tr.begin("setup")
	tr.begin("topology.Generate")
	topo, err := topology.Generate(topology.Small, topology.LAN, p.topoSeed)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("topology.AddHosts")
	hosts := topo.AddHosts(p.hosts)
	tr.end()
	lr.g = topo.Graph
	lr.links = routerLinkPairs(lr.g)
	lr.rt = live.New(lr.g)
	resolver := graph.NewResolver(lr.g, 256)
	lr.demand = make([]rate.Rate, len(p.sessions))
	for _, sp := range p.sessions {
		tr.begin("graph.HostPath")
		path, err := resolver.HostPath(hosts[sp[0]], hosts[sp[1]])
		tr.end()
		if err != nil {
			return nil, err
		}
		tr.begin("live.NewSession")
		s, err := lr.rt.NewSession(path)
		tr.end()
		if err != nil {
			return nil, err
		}
		lr.sessions = append(lr.sessions, s)
	}
	picker := newLinkPicker(len(lr.links))
	tr.end()
	res.SetupS = time.Since(processStart).Seconds()

	clients := runtime.GOMAXPROCS(0)
	var lastPackets uint64
	for e, ep := range p.epochs {
		tr.setEpoch(e)
		tr.begin("epoch")
		t0 := time.Now()
		// Topology events first, from this goroutine; the session calls then
		// race each other (and the migrations the failure started).
		if ep.fail {
			if l := picker.pickUp(ep.failRaw); l >= 0 {
				picker.fail(l)
				tr.begin("live.FailLinks")
				lr.rt.FailLinks(lr.links[l][0], lr.links[l][1])
				tr.end()
			}
		}
		if ep.restore {
			if l := picker.restoreOldest(); l >= 0 {
				tr.begin("live.RestoreLinks")
				lr.rt.RestoreLinks(lr.links[l][0], lr.links[l][1])
				tr.end()
			}
		}
		lr.issue(ep.ops, clients)
		if n := runtime.NumGoroutine(); n > lr.goroutinesMax {
			lr.goroutinesMax = n
		}
		tr.begin("live.WaitQuiescent")
		lr.rt.WaitQuiescent()
		tr.end()
		wall := time.Since(t0)
		tr.end()
		res.RunS += wall.Seconds()
		res.EpochMs = append(res.EpochMs, ms(wall))
		var packets uint64
		for _, lc := range lr.rt.LinkPackets() {
			packets += lc.Packets
		}
		res.Packets = packets

		tr.begin("validate")
		t0 = time.Now()
		verr := lr.rt.Validate()
		res.ValidateMs = append(res.ValidateMs, ms(time.Since(t0)))
		tr.end()
		res.check(verr == nil, "epoch %d: %v", e, verr)
		res.check(packets > lastPackets, "epoch %d sent no packet", e)
		lastPackets = packets
		if after != nil {
			after(e, lr)
		}
	}
	lr.incarnations = lr.rt.Incarnations()
	lr.rt.Close()
	return res, nil
}

// issue makes an epoch's session calls from the client goroutines, call k
// going to client k mod clients, and returns when all have been made.
func (lr *liveRun) issue(ops []op, clients int) {
	// The tracer belongs to one goroutine; the clients time their own Join
	// calls and hand the durations back.
	joinCalls := make([][]time.Duration, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < len(ops); k += clients {
				o := ops[k]
				s := lr.sessions[o.sess]
				switch o.kind {
				case opJoin:
					if !lr.timeCalls {
						s.Join(demandRate(o.mbps))
						break
					}
					t0 := time.Now()
					s.Join(demandRate(o.mbps))
					joinCalls[c] = append(joinCalls[c], time.Since(t0))
				case opChange:
					s.Change(demandRate(o.mbps))
				case opLeave:
					s.Leave()
				}
			}
		}(c)
	}
	wg.Wait()
	for _, o := range ops {
		if o.kind != opLeave {
			lr.demand[o.sess] = demandRate(o.mbps)
		}
	}
	for _, ds := range joinCalls {
		lr.joinCalls = append(lr.joinCalls, ds...)
	}
}

// routerLinkPairs lists every router–router duplex link once, in insertion
// order — the same enumeration bneck.Simulation.RouterLinks gives a public
// API user, so link index i means the same link in both set-ups.
func routerLinkPairs(g *graph.Graph) [][2]graph.LinkID {
	var out [][2]graph.LinkID
	for id := 0; id < g.NumLinks(); id++ {
		l := g.Link(graph.LinkID(id))
		if l.Reverse == graph.NoLink || l.Reverse < l.ID {
			continue
		}
		if g.Node(l.From).Kind != graph.Router || g.Node(l.To).Kind != graph.Router {
			continue
		}
		out = append(out, [2]graph.LinkID{l.ID, l.Reverse})
	}
	return out
}
