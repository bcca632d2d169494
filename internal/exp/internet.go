package exp

import (
	"fmt"
	"math/rand"
	"time"

	"bneck/internal/network"
	"bneck/internal/sim"
	"bneck/internal/topology"
	"bneck/internal/trace"
)

// Internet-scale runs: the topology ladder's rungs and the CI smoke both
// drive a join burst on a generated internet topology (core/metro/edge
// tiers, power-law fringe — topology.GenerateInternet) through this one
// config, so the measured path and the smoke-tested path are identical.

// InternetConfig parameterizes one internet-scale join-burst run.
type InternetConfig struct {
	// Params sizes the topology (topology.InternetPaper/Metro/Global).
	Params topology.InternetParams
	// Sessions is the number of sessions joining in the burst.
	Sessions int
	// JoinWindow spreads the joins uniformly over [0, JoinWindow); zero
	// defaults to 1 ms, the paper's burst width.
	JoinWindow time.Duration
	// DemandCap is the fraction of sessions with a finite demand (0.25 when
	// zero, matching the paper's mixed-demand experiments).
	DemandCap float64
	// Seed makes generation, placement and demands deterministic.
	Seed int64
	// Validate cross-checks the final rates against the oracle.
	Validate bool
	// IncrementalOracle feeds churn to the delta-driven validation oracle
	// (network.Config.IncrementalOracle) instead of full-solving per epoch.
	IncrementalOracle bool
	// OracleCrossCheck additionally full-solves on every oracle flush and
	// errors on divergence (debug; implies IncrementalOracle).
	OracleCrossCheck bool
}

// InternetResult summarizes one internet-scale run.
type InternetResult struct {
	Routers    int
	Links      int
	Sessions   int
	Quiescence sim.Time
	Packets    uint64
	Events     uint64
}

// RunInternet generates the topology, places the sessions, fires the join
// burst and runs to quiescence.
func RunInternet(cfg InternetConfig) (InternetResult, error) {
	if cfg.Sessions < 1 {
		return InternetResult{}, fmt.Errorf("exp: internet run needs at least one session")
	}
	if cfg.JoinWindow <= 0 {
		cfg.JoinWindow = time.Millisecond
	}
	if cfg.DemandCap == 0 {
		cfg.DemandCap = 0.25
	}
	topo, err := topology.GenerateInternet(cfg.Params, cfg.Seed)
	if err != nil {
		return InternetResult{}, err
	}
	netCfg := network.DefaultConfig()
	netCfg.IncrementalOracle = cfg.IncrementalOracle
	netCfg.OracleCrossCheck = cfg.OracleCrossCheck
	eng := sim.New()
	net := network.New(topo.Graph, eng, netCfg)
	ss, err := PlaceSessions(topo, net, cfg.Sessions)
	if err != nil {
		return InternetResult{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	demand := trace.MixedDemands(cfg.DemandCap, 1, 100)
	for _, ev := range trace.Joins(0, cfg.Sessions, 0, cfg.JoinWindow, demand, rng) {
		net.ScheduleJoin(ss[ev.Session], ev.At, ev.Demand)
	}
	res := InternetResult{
		Routers:  cfg.Params.Routers(),
		Sessions: cfg.Sessions,
	}
	res.Quiescence = net.Run()
	res.Links = topo.Graph.NumLinks()
	res.Packets = net.Stats().Total()
	res.Events = eng.Events()
	if cfg.Validate {
		if err := net.Validate(); err != nil {
			return res, fmt.Errorf("exp: internet validation failed: %w", err)
		}
	}
	return res, nil
}
