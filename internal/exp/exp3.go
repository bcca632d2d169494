package exp

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"bneck/internal/baseline"
	"bneck/internal/graph"
	"bneck/internal/metrics"
	"bneck/internal/network"
	"bneck/internal/rate"
	"bneck/internal/sim"
	"bneck/internal/topology"
	"bneck/internal/trace"
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
	Leavers  int
	// Window is the burst width (paper: 5 ms).
	Window time.Duration
	// SampleEvery is the error-sampling interval (paper: 3 ms).
	SampleEvery time.Duration
	// Horizon is how long each protocol runs (paper figures: 120 ms).
	Horizon time.Duration
	// Protocols to run: "bneck", "bfyz", "cg", "rcp".
	Protocols []string
	// ProbePeriod is the baselines' source re-probe interval.
	ProbePeriod time.Duration
	Seed        int64
	Progress    io.Writer
	// Workers bounds how many protocols run concurrently. Every protocol
	// gets its own engine over the shared (read-only) workload, so results
	// are byte-identical to a serial run. 0 or 1 runs serially; negative
	// selects GOMAXPROCS.
	Workers int
}

// DefaultExp3 is the laptop-scale default (paper: 100,000/10,000).
func DefaultExp3() Exp3Config {
	return Exp3Config{
		Topology:    topology.Medium,
		Scenario:    topology.LAN,
		Sessions:    10_000,
		Leavers:     1_000,
		Window:      5 * time.Millisecond,
		SampleEvery: 3 * time.Millisecond,
		Horizon:     120 * time.Millisecond,
		Protocols:   []string{"bneck", "bfyz"},
		ProbePeriod: 5 * time.Millisecond,
		Seed:        1,
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
	joins   []trace.Event
	leaves  []trace.Event
	joinAt  []time.Duration // per session
	leaveAt []time.Duration // per session; 0 = never leaves
	window  time.Duration
	stays   []int // session indexes active at the end

	mu      sync.Mutex                    // guards oracles and asm (shared across protocol runs)
	oracles map[time.Duration]*exp3Oracle // per sample instant (burst phase)
	final   *exp3Oracle
	asm     waterfill.Assembler[graph.LinkID]
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

// RunExperiment3 runs every requested protocol on the shared workload.
// Protocols run across cfg.Workers goroutines; the series order and content
// are identical to a serial run.
func RunExperiment3(cfg Exp3Config) (*Exp3Result, error) {
	// Reject typos before simulating anything: at paper scale a single
	// protocol run costs minutes, and RunParallel runs every job to
	// completion regardless of other jobs' failures.
	for _, p := range cfg.Protocols {
		switch p {
		case "bneck", "bfyz", "cg", "rcp":
		default:
			return nil, fmt.Errorf("exp3: unknown protocol %q", p)
		}
	}
	w, err := buildExp3Workload(cfg)
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = 1
	}
	if workers != 1 {
		// Warm the burst-phase oracle cache up front so concurrent protocol
		// runs only read the workload (the mutex in oracleAt is a backstop).
		for t := cfg.SampleEvery; t <= cfg.Horizon && t < w.window; t += cfg.SampleEvery {
			if _, err := w.oracleAt(t); err != nil {
				return nil, err
			}
		}
	}
	series := make([]*Exp3Series, len(cfg.Protocols))
	errs := make([]error, len(cfg.Protocols))
	var progress *progressTracker
	if cfg.Progress != nil {
		progress = newProgressTracker(len(cfg.Protocols), func(line string) {
			fmt.Fprint(cfg.Progress, line)
		})
	}
	_ = RunParallel(len(cfg.Protocols), workers, func(i int) error {
		p := cfg.Protocols[i]
		var s *Exp3Series
		var err error
		switch p {
		case "bneck":
			s, err = runExp3BNeck(cfg, w)
		case "bfyz":
			s, err = runExp3Baseline(cfg, w, baseline.BFYZ{})
		case "cg":
			s, err = runExp3Baseline(cfg, w, baseline.CG{})
		case "rcp":
			s, err = runExp3Baseline(cfg, w, baseline.RCP{})
		default:
			errs[i] = fmt.Errorf("exp3: unknown protocol %q", p)
			if progress != nil {
				progress.report(i, "")
			}
			return errs[i]
		}
		if err != nil {
			errs[i] = fmt.Errorf("exp3 %s: %w", p, err)
			if progress != nil {
				progress.report(i, "")
			}
			return errs[i]
		}
		series[i] = s
		if progress != nil {
			progress.report(i, fmt.Sprintf(
				"exp3 %-6s packets=%-10d converged=%-10v quiescent=%t\n",
				s.Protocol, s.Packets, s.ConvergedAt, s.Quiescent))
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res := &Exp3Result{}
	for _, s := range series {
		res.Series = append(res.Series, *s)
	}
	return res, nil
}

// buildExp3Workload creates the topology, sessions and schedules, and
// computes the final-configuration oracle: the fair rates of the sessions
// that remain, the bottleneck links, and their fair loads.
func buildExp3Workload(cfg Exp3Config) (*exp3Workload, error) {
	topo, err := topology.Generate(cfg.Topology, cfg.Scenario, cfg.Seed)
	if err != nil {
		return nil, err
	}
	w := &exp3Workload{topo: topo}
	w.asm.Capacity = func(l graph.LinkID) rate.Rate { return topo.Graph.Link(l).Capacity }

	// Place sessions directly (not via PlaceSessions: we need raw paths to
	// reuse across protocols).
	hosts := topo.AddHosts(2 * cfg.Sessions)
	rng := topo.Rand()
	g := topo.Graph
	res := graph.NewResolver(g, 256)
	type pair struct{ src, dst graph.NodeID }
	pairs := make([]pair, cfg.Sessions)
	for i := range pairs {
		src := hosts[i]
		dst := hosts[rng.Intn(len(hosts))]
		for dst == src {
			dst = hosts[rng.Intn(len(hosts))]
		}
		pairs[i] = pair{src, dst}
	}
	// Resolve grouped by source router for cache locality, preserving index.
	order := make([]int, cfg.Sessions)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return g.HostRouter(pairs[order[a]].src) < g.HostRouter(pairs[order[b]].src)
	})
	w.paths = make([]graph.Path, cfg.Sessions)
	for _, i := range order {
		p, err := res.HostPath(pairs[i].src, pairs[i].dst)
		if err != nil {
			return nil, err
		}
		w.paths[i] = p
	}

	schedRng := rand.New(rand.NewSource(cfg.Seed + 17))
	w.joins = trace.Joins(0, cfg.Sessions, 0, cfg.Window, trace.Unbounded, schedRng)
	joinAt := make(map[int]time.Duration, cfg.Sessions)
	for _, ev := range w.joins {
		joinAt[ev.Session] = ev.At
	}
	all := make([]int, cfg.Sessions)
	for i := range all {
		all[i] = i
	}
	leavers := trace.Sample(all, cfg.Leavers, schedRng)
	// A leaver departs inside the window but strictly after its own join
	// (the paper's sessions leave during the same first 5 ms they joined in).
	w.leaves = make([]trace.Event, 0, len(leavers))
	for _, l := range leavers {
		after := joinAt[l] + time.Microsecond
		span := cfg.Window - after
		at := after
		if span > 0 {
			at += time.Duration(schedRng.Int63n(int64(span)))
		}
		w.leaves = append(w.leaves, trace.Event{At: at, Kind: trace.Leave, Session: l})
	}
	isLeaver := make(map[int]bool, len(leavers))
	for _, l := range leavers {
		isLeaver[l] = true
	}
	for i := 0; i < cfg.Sessions; i++ {
		if !isLeaver[i] {
			w.stays = append(w.stays, i)
		}
	}
	w.window = cfg.Window
	w.joinAt = make([]time.Duration, cfg.Sessions)
	w.leaveAt = make([]time.Duration, cfg.Sessions)
	for _, ev := range w.joins {
		w.joinAt[ev.Session] = ev.At
	}
	for _, ev := range w.leaves {
		w.leaveAt[ev.Session] = ev.At
	}

	w.oracles = make(map[time.Duration]*exp3Oracle)
	final, err := w.solveOracle(w.stays)
	if err != nil {
		return nil, err
	}
	w.final = final
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
		if load[l].Equal(g.Link(l).Capacity) {
			o.bnLinks = append(o.bnLinks, l)
			o.fairLoad[l] = load[l].Float64()
		}
	}
	return o, nil
}

// oracleAt returns the ground truth for the sessions active at time t.
// After the dynamics window closes the final oracle applies; during the
// burst, per-instant oracles are computed once and cached (they are shared
// by all protocols).
func (w *exp3Workload) oracleAt(t time.Duration) (*exp3Oracle, error) {
	if t >= w.window {
		return w.final, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if o, ok := w.oracles[t]; ok {
		return o, nil
	}
	var active []int
	for i := range w.paths {
		joined := w.joinAt[i] <= t
		left := w.leaveAt[i] > 0 && w.leaveAt[i] <= t
		if joined && !left {
			active = append(active, i)
		}
	}
	o, err := w.solveOracle(active)
	if err != nil {
		return nil, err
	}
	w.oracles[t] = o
	return o, nil
}

// sampleErrors computes the Figure 7 error distributions at instant t:
// sessions are measured against the max-min rates of the session set active
// at t, and only sessions holding an assigned rate contribute (a session the
// protocol has not yet answered has no "assigned rate" to be wrong about).
func (w *exp3Workload) sampleErrors(t time.Duration, assigned func(idx int) (float64, bool)) (srcErrs, linkErrs []float64, err error) {
	o, err := w.oracleAt(t)
	if err != nil {
		return nil, nil, err
	}
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
	return srcErrs, linkErrs, nil
}

func runExp3BNeck(cfg Exp3Config, w *exp3Workload) (*Exp3Series, error) {
	netCfg := network.DefaultConfig()
	netCfg.BinSize = cfg.SampleEvery
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
		net.ScheduleJoin(sessions[ev.Session], ev.At, ev.Demand)
	}
	for _, ev := range w.leaves {
		net.ScheduleLeave(sessions[ev.Session], ev.At)
	}

	series := &Exp3Series{Protocol: "B-Neck"}
	var sampleErr error
	scheduleSampling(eng, cfg, func(at sim.Time) {
		src, link, err := w.sampleErrors(at, func(idx int) (float64, bool) {
			if r, ok := sessions[idx].Rate(); ok && sessions[idx].Active() {
				return r.Float64(), true
			}
			return 0, false
		})
		if err != nil {
			sampleErr = err
			return
		}
		series.SourceErr.Add(at, src)
		series.LinkErr.Add(at, link)
	})

	q := net.Run()
	if sampleErr != nil {
		return nil, sampleErr
	}
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
	bCfg := baseline.DefaultConfig()
	bCfg.Period = cfg.ProbePeriod
	bCfg.BinSize = cfg.SampleEvery
	bCfg.Seed = cfg.Seed + 23
	h := baseline.NewHarness(w.topo.Graph, eng, proto, bCfg)
	sessions := make([]*baseline.Session, len(w.paths))
	for i, p := range w.paths {
		s, err := h.NewSession(p, math.Inf(1))
		if err != nil {
			return nil, err
		}
		sessions[i] = s
	}
	for _, ev := range w.joins {
		h.ScheduleJoin(sessions[ev.Session], ev.At)
	}
	for _, ev := range w.leaves {
		h.ScheduleLeave(sessions[ev.Session], ev.At)
	}
	h.StartTicks()
	h.StopProbing(cfg.Horizon)

	series := &Exp3Series{Protocol: proto.Name()}
	var sampleErr error
	scheduleSampling(eng, cfg, func(at sim.Time) {
		src, link, err := w.sampleErrors(at, func(idx int) (float64, bool) {
			if sessions[idx].Active() && sessions[idx].Rate() > 0 {
				return sessions[idx].Rate(), true
			}
			return 0, false
		})
		if err != nil {
			sampleErr = err
			return
		}
		series.SourceErr.Add(at, src)
		series.LinkErr.Add(at, link)
	})

	eng.RunUntil(cfg.Horizon)
	if sampleErr != nil {
		return nil, sampleErr
	}
	series.Bins = h.Stats().Bins()
	series.Packets = h.Stats().Total()
	series.ConvergedAt = convergedAt(series.SourceErr)
	return series, nil
}

// scheduleSampling installs daemon sampling events every SampleEvery up to
// the horizon.
func scheduleSampling(eng *sim.Engine, cfg Exp3Config, sample func(at sim.Time)) {
	for t := cfg.SampleEvery; t <= cfg.Horizon; t += cfg.SampleEvery {
		at := t
		eng.DaemonAt(at, func() { sample(at) })
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
