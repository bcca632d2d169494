package exp

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"bneck/internal/baseline"
	"bneck/internal/graph"
	"bneck/internal/metrics"
	"bneck/internal/network"
	"bneck/internal/rate"
	"bneck/internal/sim"
	"bneck/internal/topology"
	"bneck/internal/waterfill"
)

// Exp3Config parameterizes Experiment 3 (Figures 7 and 8): B-Neck against
// non-quiescent protocols on a Medium/LAN network where Sessions join and
// Leavers leave during the first 5 ms. Paper scale: 100,000 joins, 10,000
// leaves.
type Exp3Config struct {
	Topology topology.Params
	Scenario topology.Scenario
	Sessions int
	// Leavers, at most Sessions, leave again inside the burst.
	Leavers int
	// Horizon is how long each protocol runs (paper figures: 120 ms).
	Horizon time.Duration
	// Protocols to run: "bneck", "bfyz", "cg", "rcp".
	Protocols []string
	Seed      int64
	Progress  io.Writer
	// Workers bounds how many protocols run concurrently. Every protocol
	// gets its own engine over the shared (read-only) workload, so results
	// are byte-identical to a serial run. 0 or 1 runs serially; negative
	// selects GOMAXPROCS.
	Workers int
}

// Experiment 3's timings: the burst width (paper: 5 ms) and the
// error-sampling interval, which also bins Figure 8's packets (paper: 3 ms,
// the baselines' bins).
const (
	exp3Window      = 5 * time.Millisecond
	exp3SampleEvery = baseline.BinSize
)

// DefaultExp3 is the laptop-scale default (paper: 100,000/10,000).
func DefaultExp3() Exp3Config {
	return Exp3Config{
		Topology:  topology.Medium,
		Scenario:  topology.LAN,
		Sessions:  10_000,
		Leavers:   1_000,
		Horizon:   120 * time.Millisecond,
		Protocols: []string{"bneck", "bfyz"},
		Seed:      1,
	}
}

// Exp3Series is one protocol's measurements.
type Exp3Series struct {
	Protocol string
	// SourceErr is Figure 7 left: the distribution over sessions of
	// 100·(assigned−fair)/fair, sampled over time.
	SourceErr metrics.Series
	// LinkErr is Figure 7 right: the distribution over bottleneck links of
	// the relative error of the summed session rates they carry.
	LinkErr metrics.Series
	// Bins is Figure 8: packets per sampling interval.
	Bins []metrics.Bin
	// Packets is the total control traffic over the horizon.
	Packets uint64
	// ConvergedAt is the first sample time after which the mean absolute
	// source error stays below 0.5% (0 if never).
	ConvergedAt time.Duration
	// Quiescent says whether the protocol stopped injecting traffic
	// (B-Neck only).
	Quiescent    bool
	QuiescenceAt time.Duration
}

// Exp3Result is the data behind Figures 7 and 8.
type Exp3Result struct {
	Series []Exp3Series
}

// exp3Workload is the shared instance: one topology and one session
// placement used identically by every protocol.
type exp3Workload struct {
	topo    *topology.Network
	paths   []graph.Path
	joins   []event
	leaves  []event
	joinAt  []time.Duration // per session
	leaveAt []time.Duration // per session; 0 = never leaves
	stays   []int           // session indexes active at the end

	burst []*exp3Oracle // burst[k] holds for the sample instant (k+1)·exp3SampleEvery
	final *exp3Oracle   // holds from exp3Window on
	asm   waterfill.Assembler[graph.LinkID]
}

// exp3Oracle is the max-min ground truth for one set of active sessions:
// the paper's error reference is the fair rates of the sessions present at
// the sampling instant.
type exp3Oracle struct {
	fair     map[int]float64
	bnLinks  []graph.LinkID // bottleneck links (directed)
	fairLoad map[graph.LinkID]float64
	crossers map[graph.LinkID][]int
}

// exp3Baselines are the non-quiescent protocols Experiment 3 compares
// B-Neck ("bneck") against.
var exp3Baselines = map[string]baseline.Protocol{
	"bfyz": baseline.BFYZ{}, "cg": baseline.CG{}, "rcp": baseline.RCP{},
}

// RunExperiment3 runs every requested protocol on the shared workload.
// Protocols run across cfg.Workers goroutines; the series order and content
// are identical to a serial run.
func RunExperiment3(cfg Exp3Config) (*Exp3Result, error) {
	// Reject typos before simulating anything: at paper scale a single
	// protocol run costs minutes, and a sweep runs every cell to completion
	// regardless of other cells' failures.
	for _, p := range cfg.Protocols {
		if _, ok := exp3Baselines[p]; !ok && p != "bneck" {
			return nil, fmt.Errorf("exp3: unknown protocol %q", p)
		}
	}
	if cfg.Sessions < 1 {
		return nil, fmt.Errorf("exp3: need at least one session")
	} else if cfg.Leavers < 0 || cfg.Leavers > cfg.Sessions {
		return nil, fmt.Errorf("exp3: %d leavers outside [0, %d sessions]", cfg.Leavers, cfg.Sessions)
	}
	w, err := buildExp3Workload(cfg)
	if err != nil {
		return nil, err
	}
	series, err := sweep(cfg.Protocols, cfg.Workers, cfg.Progress,
		func(p string) string { return "exp3 " + p },
		func(p string) ([]Exp3Series, string, error) {
			var s *Exp3Series
			var err error
			if p == "bneck" {
				s, err = runExp3BNeck(cfg, w)
			} else {
				s, err = runExp3Baseline(cfg, w, exp3Baselines[p])
			}
			if err != nil {
				return nil, "", err
			}
			return []Exp3Series{*s}, fmt.Sprintf(
				"exp3 %-6s packets=%-10d converged=%-10v quiescent=%t\n",
				s.Protocol, s.Packets, s.ConvergedAt, s.Quiescent), nil
		})
	if err != nil {
		return nil, err
	}
	return &Exp3Result{Series: series}, nil
}

// buildExp3Workload creates the topology, sessions and schedules, and solves
// every oracle the samples read: the final configuration's (the fair rates
// of the sessions that remain, the bottleneck links, and their fair loads),
// then one per sample instant inside the burst. Protocol runs only read the
// workload.
func buildExp3Workload(cfg Exp3Config) (*exp3Workload, error) {
	topo, err := topology.Generate(cfg.Topology, cfg.Scenario, cfg.Seed)
	if err != nil {
		return nil, err
	}
	w := &exp3Workload{topo: topo}
	w.asm.Capacity = func(l graph.LinkID) rate.Rate { return topo.Graph.Link(l).Capacity }

	// Draw the pairs but resolve raw paths: there is no network here, and
	// every protocol reuses the paths.
	pairs, err := drawPairs(topo, cfg.Sessions)
	if err != nil {
		return nil, err
	}
	res := graph.NewResolver(topo.Graph, 256)
	w.paths = make([]graph.Path, cfg.Sessions)
	for i := range pairs {
		p, err := res.HostPath(pairs[i][0], pairs[i][1])
		if err != nil {
			return nil, err
		}
		w.paths[i] = p
	}

	schedRng := rand.New(rand.NewSource(cfg.Seed + 17))
	all := span(0, cfg.Sessions)
	w.joins = draws("join", all, exp3Window, unbounded, schedRng)
	w.joinAt = make([]time.Duration, cfg.Sessions)
	for _, ev := range w.joins {
		w.joinAt[ev.session] = ev.at
	}
	leavers := sample(all, cfg.Leavers, schedRng)
	// A leaver departs inside the window but strictly after its own join
	// (the paper's sessions leave during the same first 5 ms they joined in),
	// so its leaveAt is positive.
	w.leaveAt = make([]time.Duration, cfg.Sessions)
	w.leaves = make([]event, 0, len(leavers))
	for _, l := range leavers {
		after := w.joinAt[l] + time.Microsecond
		at := after
		if width := exp3Window - after; width > 0 {
			at += time.Duration(schedRng.Int63n(int64(width)))
		}
		w.leaveAt[l] = at
		w.leaves = append(w.leaves, event{at: at, op: "leave", session: l})
	}
	for i, at := range w.leaveAt {
		if at == 0 {
			w.stays = append(w.stays, i)
		}
	}

	if w.final, err = w.solveOracle(w.stays); err != nil {
		return nil, err
	}
	for t := exp3SampleEvery; t <= cfg.Horizon && t < exp3Window; t += exp3SampleEvery {
		var active []int
		for i := range w.paths {
			if w.joinAt[i] <= t && (w.leaveAt[i] == 0 || w.leaveAt[i] > t) {
				active = append(active, i)
			}
		}
		o, err := w.solveOracle(active)
		if err != nil {
			return nil, err
		}
		w.burst = append(w.burst, o)
	}
	return w, nil
}

// solveOracle computes the max-min ground truth for a set of active session
// indexes.
func (w *exp3Workload) solveOracle(active []int) (*exp3Oracle, error) {
	g := w.topo.Graph
	w.asm.Reset()
	for _, i := range active {
		w.asm.Add(rate.Inf, w.paths[i])
	}
	o := &exp3Oracle{
		fair:     make(map[int]float64, len(active)),
		fairLoad: make(map[graph.LinkID]float64),
		crossers: make(map[graph.LinkID][]int),
	}
	rates, err := w.asm.Solve()
	if err != nil {
		return nil, err
	}
	load := make(map[graph.LinkID]rate.Rate)
	for k, i := range active {
		o.fair[i] = rates[k].Float64()
		for _, l := range w.paths[i] {
			load[l] = load[l].Add(rates[k])
			o.crossers[l] = append(o.crossers[l], i)
		}
	}
	// bnLinks orders linkErrs in sampleErrors, so iterate in sorted link
	// order rather than map order.
	links := make([]graph.LinkID, 0, len(load))
	for l := range load {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
	for _, l := range links {
		if load[l].Equal(g.Capacity(l)) {
			o.bnLinks = append(o.bnLinks, l)
			o.fairLoad[l] = load[l].Float64()
		}
	}
	return o, nil
}

// oracleAt returns the ground truth for the sessions active at the sample
// instant t.
func (w *exp3Workload) oracleAt(t time.Duration) *exp3Oracle {
	if t >= exp3Window {
		return w.final
	}
	return w.burst[t/exp3SampleEvery-1]
}

// sampleErrors computes the Figure 7 error distributions at instant t:
// sessions are measured against the max-min rates of the session set active
// at t, and only sessions holding an assigned rate contribute (a session the
// protocol has not yet answered has no "assigned rate" to be wrong about).
func (w *exp3Workload) sampleErrors(t time.Duration, assigned func(idx int) (float64, bool)) (srcErrs, linkErrs []float64) {
	o := w.oracleAt(t)
	// Iterate sessions in index order: srcErrs carries the append order into
	// the per-source error distribution.
	idxs := make([]int, 0, len(o.fair))
	for i := range o.fair {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	cur := make(map[int]float64, len(o.fair))
	for _, i := range idxs {
		a, ok := assigned(i)
		if !ok {
			continue
		}
		cur[i] = a
		srcErrs = append(srcErrs, metrics.RelativeErrorPct(a, o.fair[i]))
	}
	linkErrs = make([]float64, 0, len(o.bnLinks))
	for _, l := range o.bnLinks {
		var sum float64
		for _, i := range o.crossers[l] {
			sum += cur[i] // unassigned sessions contribute 0 offered load
		}
		linkErrs = append(linkErrs, metrics.RelativeErrorPct(sum, o.fairLoad[l]))
	}
	return srcErrs, linkErrs
}

func runExp3BNeck(cfg Exp3Config, w *exp3Workload) (*Exp3Series, error) {
	netCfg := network.DefaultConfig()
	netCfg.BinSize = exp3SampleEvery
	eng := sim.New()
	net := network.New(w.topo.Graph, eng, netCfg)
	sessions := make([]*network.Session, len(w.paths))
	for i, p := range w.paths {
		s, err := net.NewSession(w.topo.Graph.Link(p[0]).From, w.topo.Graph.Link(p[len(p)-1]).To, p)
		if err != nil {
			return nil, err
		}
		sessions[i] = s
	}
	for _, ev := range w.joins {
		net.ScheduleJoin(sessions[ev.session], ev.at, ev.demand)
	}
	for _, ev := range w.leaves {
		net.ScheduleLeave(sessions[ev.session], ev.at)
	}

	series := &Exp3Series{Protocol: "B-Neck"}
	w.sampleInto(series, eng, cfg, func(idx int) (float64, bool) {
		if r, ok := sessions[idx].Rate(); ok && sessions[idx].Active() {
			return r.Float64(), true
		}
		return 0, false
	})
	q := net.Run()
	if err := net.Validate(); err != nil {
		return nil, err
	}
	eng.RunUntil(cfg.Horizon) // flush remaining samples; must stay silent
	series.Bins = net.Stats().Bins()
	series.Packets = net.Stats().Total()
	series.Quiescent = true
	series.QuiescenceAt = q
	series.ConvergedAt = convergedAt(series.SourceErr)
	return series, nil
}

func runExp3Baseline(cfg Exp3Config, w *exp3Workload, proto baseline.Protocol) (*Exp3Series, error) {
	eng := sim.New()
	h := baseline.NewHarness(w.topo.Graph, eng, proto, baseline.Config{Seed: cfg.Seed + 23})
	sessions := make([]*baseline.Session, len(w.paths))
	for i, p := range w.paths {
		s, err := h.NewSession(p, math.Inf(1))
		if err != nil {
			return nil, err
		}
		sessions[i] = s
	}
	for _, ev := range w.joins {
		h.ScheduleJoin(sessions[ev.session], ev.at)
	}
	for _, ev := range w.leaves {
		h.ScheduleLeave(sessions[ev.session], ev.at)
	}
	h.StartTicks()
	h.StopProbing(cfg.Horizon)

	series := &Exp3Series{Protocol: proto.Name()}
	w.sampleInto(series, eng, cfg, func(idx int) (float64, bool) {
		if sessions[idx].Active() && sessions[idx].Rate() > 0 {
			return sessions[idx].Rate(), true
		}
		return 0, false
	})
	eng.RunUntil(cfg.Horizon)
	series.Bins = h.Stats().Bins()
	series.Packets = h.Stats().Total()
	series.ConvergedAt = convergedAt(series.SourceErr)
	return series, nil
}

// sampleInto installs daemon sampling events every SampleEvery up to the
// horizon, each adding the Figure 7 error distributions of the rates
// assigned reports to series.
func (w *exp3Workload) sampleInto(series *Exp3Series, eng *sim.Engine, cfg Exp3Config, assigned func(idx int) (float64, bool)) {
	for t := exp3SampleEvery; t <= cfg.Horizon; t += exp3SampleEvery {
		at := t
		eng.DaemonAt(at, func() {
			src, link := w.sampleErrors(at, assigned)
			series.SourceErr.Add(at, src)
			series.LinkErr.Add(at, link)
		})
	}
}

// convergedAt finds the first sample after which the mean absolute source
// error stays below 0.5%.
func convergedAt(s metrics.Series) time.Duration {
	const tol = 0.5
	conv := time.Duration(0)
	found := false
	for _, p := range s.Points {
		bad := math.Abs(p.Summary.Mean) > tol || math.Abs(p.Summary.Median) > tol
		if bad {
			found = false
			continue
		}
		if !found {
			conv = p.At
			found = true
		}
	}
	if !found {
		return 0
	}
	return conv
}
