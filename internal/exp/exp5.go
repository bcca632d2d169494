package exp

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"bneck/internal/control"
	"bneck/internal/graph"
	"bneck/internal/network"
	"bneck/internal/rate"
	"bneck/internal/sim"
	"bneck/internal/topology"
	"bneck/internal/trace"
)

// Exp5Config parameterizes Experiment 5, the path re-optimization study: a
// base population joins a transit-stub network, a batch of in-use router
// links fails (forcing detour migrations), and the links are then restored.
// Each sweep cell runs the identical workload twice — once under the Pinned
// policy (sessions stay on their detours forever, the paper's behavior) and
// once under ReoptimizeOnRestore — and measures what re-optimization buys
// (path hops regained, rate regained) against what it costs (extra
// reconfiguration packets). Every phase is validated against the
// water-filling oracle.
type Exp5Config struct {
	Sizes     []topology.Params
	Scenarios []topology.Scenario
	Seeds     []int64
	// Sessions is the base population joining in the base phase.
	Sessions int
	// Fails is how many distinct in-use duplex router links fail in the
	// failure phase (all restored together in the restore phase).
	Fails int
	// Policy's Stretch and MinGain are the re-optimization hysteresis; each
	// cell runs under both kinds, so its Kind is ignored.
	Policy control.Policy
	// Window is the burst width of the base join phase.
	Window time.Duration
	// Gap separates a phase's quiescence from the next phase's events.
	Gap time.Duration
	// Validate cross-checks every phase against the centralized oracle.
	Validate bool
	Progress io.Writer
	// Workers bounds how many sweep cells run concurrently; results are
	// byte-identical to a serial run (each cell owns its engines and RNGs).
	Workers int
}

// DefaultExp5 is a laptop-scale default covering both propagation models.
func DefaultExp5() Exp5Config {
	return Exp5Config{
		Sizes:     []topology.Params{topology.Small},
		Scenarios: []topology.Scenario{topology.LAN, topology.WAN},
		Seeds:     []int64{1, 2},
		Sessions:  300,
		Fails:     4,
		Window:    time.Millisecond,
		Gap:       5 * time.Millisecond,
		Validate:  true,
	}
}

// Exp5Row is one phase of one (cell, policy) run. Phases are "base" (the
// join burst), "fail" (the failure batch) and "restore" (links back up —
// where the two policies diverge).
type Exp5Row struct {
	Network  string
	Scenario string
	Seed     int64
	// Policy is "pinned" or "reoptimize".
	Policy string
	Phase  string
	// Active and Stranded count sessions after the phase re-quiesced;
	// Migrated and Reoptimized are the cumulative reroute counters.
	Active      int
	Stranded    int
	Migrated    uint64
	Reoptimized uint64
	// HopsActive sums the active sessions' current path lengths; HopsBest
	// sums their shortest-path lengths on the current graph. The gap is the
	// detour debt the pinned policy carries after the restore.
	HopsActive int
	HopsBest   int
	// SumRateMbps is the total allocated rate over active sessions — the
	// rate the population regains when detours fold back onto direct paths.
	SumRateMbps float64
	// Requiescence is the virtual time from the phase's burst to renewed
	// quiescence.
	Requiescence time.Duration
	// Packets is the phase's control traffic; ReconfigPackets its share
	// attributable to reconfiguration (Leave cascades + topology-driven
	// rejoin cascades) — re-optimization's price.
	Packets         uint64
	ReconfigPackets uint64
}

// RunExperiment5 executes the sweep and returns rows grouped per cell:
// pinned phases first, then the reoptimize phases. Cells run across
// cfg.Workers goroutines; rows and progress lines are byte-identical to a
// serial run.
func RunExperiment5(cfg Exp5Config) ([]Exp5Row, error) {
	if cfg.Window <= 0 {
		cfg.Window = time.Millisecond
	}
	if cfg.Gap <= 0 {
		cfg.Gap = 5 * time.Millisecond
	}
	if cfg.Sessions < 1 {
		return nil, fmt.Errorf("exp5: need at least one session")
	}
	if cfg.Fails < 1 {
		return nil, fmt.Errorf("exp5: need at least one failure")
	}
	return sweep(grid(cfg.Sizes, cfg.Scenarios, cfg.Seeds), cfg.Workers, cfg.Progress,
		func(c gridCell[int64]) string { return fmt.Sprintf("exp5 %s/%s/seed%d", c.size.Name, c.scen, c.n) },
		func(c gridCell[int64]) ([]Exp5Row, string, error) {
			var rows []Exp5Row
			for _, kind := range []control.PolicyKind{control.Pinned, control.ReoptimizeOnRestore} {
				rs, err := runExp5Cell(cfg, c.size, c.scen, c.n, kind)
				if err != nil {
					return nil, "", fmt.Errorf("%s: %w", kind, err)
				}
				rows = append(rows, rs...)
			}
			last := rows[len(rows)-1]
			return rows, fmt.Sprintf("exp5 %-6s %-3s seed=%-3d reoptimized=%-3d reconfig_pkts=%d\n",
				c.size.Name, c.scen, c.n, last.Reoptimized, last.ReconfigPackets), nil
		})
}

func runExp5Cell(cfg Exp5Config, size topology.Params, scen topology.Scenario, seed int64, kind control.PolicyKind) ([]Exp5Row, error) {
	topo, err := topology.Generate(size, scen, seed)
	if err != nil {
		return nil, err
	}
	g := topo.Graph
	netCfg := network.DefaultConfig()
	netCfg.PathPolicy = control.Policy{Kind: kind, Stretch: cfg.Policy.Stretch, MinGain: cfg.Policy.MinGain}
	eng := sim.New()
	net := network.New(g, eng, netCfg)

	sessions, err := PlaceSessions(topo, net, cfg.Sessions)
	if err != nil {
		return nil, err
	}

	var rows []Exp5Row
	var lastPackets, lastReconfig uint64
	runPhase := func(phase string, start time.Duration) error {
		q := net.Run()
		if cfg.Validate {
			if err := net.Validate(); err != nil {
				return fmt.Errorf("phase %s: %w", phase, err)
			}
		}
		row := Exp5Row{
			Network: size.Name, Scenario: scen.String(), Seed: seed,
			Policy: kind.String(), Phase: phase,
			Migrated: net.Migrations(), Reoptimized: net.Reoptimizations(),
		}
		sumRate := rate.Zero
		for _, s := range sessions {
			switch {
			case s.Stranded():
				row.Stranded++
				continue
			case !s.Active():
				continue
			}
			row.Active++
			cur := s.Current()
			row.HopsActive += len(cur.Path)
			if best, err := net.HostPath(cur.SrcHost, cur.DstHost); err == nil {
				row.HopsBest += len(best)
			}
			if r, ok := s.Rate(); ok {
				sumRate = sumRate.Add(r)
			}
		}
		row.SumRateMbps = sumRate.Float64() / 1e6
		pk, rp := net.Stats().Total(), net.ReconfigPackets()
		row.Packets = pk - lastPackets
		row.ReconfigPackets = rp - lastReconfig
		lastPackets, lastReconfig = pk, rp
		if q > start {
			row.Requiescence = q - start
		}
		rows = append(rows, row)
		return nil
	}

	// Base phase: the join burst.
	schedule(net, sessions, trace.Joins(0, cfg.Sessions, 0, cfg.Window, trace.Unbounded, rand.New(rand.NewSource(seed+41))))
	if err := runPhase("base", 0); err != nil {
		return nil, err
	}

	// Failure phase: fail a batch of distinct in-use duplex router links,
	// spread across different sessions' paths so the detours multiply.
	fails := pickFailLinks(g, sessions, cfg.Fails)
	if len(fails) == 0 {
		return nil, fmt.Errorf("no in-use router link to fail")
	}
	start := eng.Now() + cfg.Gap
	for _, l := range fails {
		net.ScheduleLinkFail(start, l, g.Link(l).Reverse)
	}
	if err := runPhase("fail", start); err != nil {
		return nil, err
	}

	// Restore phase: everything comes back — where the policies diverge.
	start = eng.Now() + cfg.Gap
	for _, l := range fails {
		net.ScheduleLinkRestore(start, l, g.Link(l).Reverse)
	}
	if err := runPhase("restore", start); err != nil {
		return nil, err
	}
	return rows, nil
}

// pickFailLinks selects up to n distinct in-use duplex router links,
// scanning the sessions' router segments in creation order and taking at
// most one new link per session per pass, so the failures spread across the
// population instead of gutting one path. Deterministic: same state, same
// picks.
func pickFailLinks(g *graph.Graph, sessions []*network.Session, n int) []graph.LinkID {
	taken := make(map[graph.LinkID]bool)
	var out []graph.LinkID
	for len(out) < n {
		before := len(out)
		for _, s := range sessions {
			if len(out) >= n {
				break
			}
			if !s.Active() {
				continue
			}
			p := s.Current().Path
			for _, l := range p[1 : len(p)-1] {
				if !g.LinkUp(l) || taken[l] {
					continue
				}
				taken[l] = true
				taken[g.Link(l).Reverse] = true
				out = append(out, l)
				break // one link per session per pass
			}
		}
		if len(out) == before {
			break // no eligible links left
		}
	}
	return out
}
