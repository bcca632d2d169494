// Package exp drives the paper's three experiments (Section IV) and
// regenerates every evaluation figure: Figure 5 (Experiment 1), Figure 6
// (Experiment 2), Figures 7 and 8 (Experiment 3). Each experiment is
// parameterized so the full paper scale (hundreds of thousands of sessions)
// and a laptop scale (the defaults) run the same code.
package exp

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"bneck/internal/graph"
	"bneck/internal/metrics"
	"bneck/internal/network"
	"bneck/internal/sim"
	"bneck/internal/topology"
	"bneck/internal/trace"
)

// Exp1Config parameterizes Experiment 1: many sessions join a quiet network
// within one millisecond; measure time to quiescence and packets sent.
type Exp1Config struct {
	Sizes         []topology.Params
	Scenarios     []topology.Scenario
	SessionCounts []int
	// JoinWindow is the interval the joins land in (paper: 1 ms).
	JoinWindow time.Duration
	Seed       int64
	// Validate cross-checks every run against the centralized oracle
	// (the paper does; costs extra wall time).
	Validate bool
	// Progress, if non-nil, receives one line per completed run.
	Progress io.Writer
	// Workers bounds how many sweep cells run concurrently. Every cell has
	// its own engine, topology and seeded RNG, so results (and CSV output)
	// are byte-identical to a serial run. 0 or 1 runs serially; negative
	// selects GOMAXPROCS.
	Workers int
}

// DefaultExp1 is a laptop-scale default: the paper sweeps 10…300,000
// sessions on Small/Medium/Big; here Small+Medium up to 5,000 (pass bigger
// counts and topology.Big explicitly for paper scale).
func DefaultExp1() Exp1Config {
	return Exp1Config{
		Sizes:         []topology.Params{topology.Small, topology.Medium},
		Scenarios:     []topology.Scenario{topology.LAN, topology.WAN},
		SessionCounts: []int{10, 100, 1000, 5000},
		JoinWindow:    time.Millisecond,
		Seed:          1,
		Validate:      true,
	}
}

// Exp1Row is one point of Figure 5: a (topology, scenario, session count)
// cell with its time to quiescence (left plot) and packet total (right
// plot).
type Exp1Row struct {
	Network           string
	Scenario          string
	Sessions          int
	Quiescence        time.Duration
	Packets           uint64
	PacketsPerSession float64
	Events            uint64
	Wall              time.Duration
	// Settle* are percentiles of the per-session settling time: from a
	// session's join to its final rate notification. The network-wide
	// quiescence time is driven by the slowest dependency chain; these show
	// how the rest of the population fares.
	SettleP50 time.Duration
	SettleP90 time.Duration
	SettleMax time.Duration
}

// RunExperiment1 executes the sweep and returns one row per cell. Cells run
// across cfg.Workers goroutines; the row order, the rows themselves and the
// progress lines are identical to a serial run.
func RunExperiment1(cfg Exp1Config) ([]Exp1Row, error) {
	if cfg.JoinWindow <= 0 {
		cfg.JoinWindow = time.Millisecond
	}
	type cell struct {
		size  topology.Params
		scen  topology.Scenario
		count int
	}
	var cells []cell
	for _, size := range cfg.Sizes {
		for _, scen := range cfg.Scenarios {
			for _, count := range cfg.SessionCounts {
				cells = append(cells, cell{size, scen, count})
			}
		}
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = 1
	}
	rows := make([]Exp1Row, len(cells))
	errs := make([]error, len(cells))
	var progress *progressTracker
	if cfg.Progress != nil {
		progress = newProgressTracker(len(cells), func(line string) {
			fmt.Fprint(cfg.Progress, line)
		})
	}
	_ = RunParallel(len(cells), workers, func(i int) error {
		c := cells[i]
		row, err := runExp1Cell(cfg, c.size, c.scen, c.count)
		if err != nil {
			errs[i] = fmt.Errorf("exp1 %s/%s/%d: %w", c.size.Name, c.scen, c.count, err)
			if progress != nil {
				progress.report(i, "")
			}
			return errs[i]
		}
		rows[i] = row
		if progress != nil {
			progress.report(i, fmt.Sprintf(
				"exp1 %-6s %-3s sessions=%-7d quiescence=%-12v packets=%d\n",
				row.Network, row.Scenario, row.Sessions, row.Quiescence, row.Packets))
		}
		return nil
	})
	// Match the serial contract: on failure return the rows of the cells
	// before the first failing one, plus that cell's error.
	for i, err := range errs {
		if err != nil {
			return rows[:i], err
		}
	}
	return rows, nil
}

func runExp1Cell(cfg Exp1Config, size topology.Params, scen topology.Scenario, count int) (Exp1Row, error) {
	start := time.Now() //bneck:wallclock Wall is operator-facing throughput info; never written to CSVs, zeroed by the determinism test.
	topo, err := topology.Generate(size, scen, cfg.Seed)
	if err != nil {
		return Exp1Row{}, err
	}
	eng := sim.New()
	net := network.New(topo.Graph, eng, network.DefaultConfig())

	sessions, err := PlaceSessions(topo, net, count)
	if err != nil {
		return Exp1Row{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	for i, ev := range trace.Joins(0, count, 0, cfg.JoinWindow, trace.Unbounded, rng) {
		_ = i
		net.ScheduleJoin(sessions[ev.Session], ev.At, ev.Demand)
	}
	q := net.Run()
	if cfg.Validate {
		if err := net.Validate(); err != nil {
			return Exp1Row{}, err
		}
	}
	settle := make([]float64, 0, len(sessions))
	for _, s := range sessions {
		settle = append(settle, float64(s.SettlingTime()))
	}
	sum := metrics.Summarize(settle)
	return Exp1Row{
		Network:           size.Name,
		Scenario:          scen.String(),
		Sessions:          count,
		Quiescence:        q,
		Packets:           net.Stats().Total(),
		PacketsPerSession: float64(net.Stats().Total()) / float64(count),
		Events:            eng.Events(),
		Wall:              time.Since(start), //bneck:wallclock see start above: reporting only, excluded from deterministic outputs.
		SettleP50:         time.Duration(sum.Median),
		SettleP90:         time.Duration(sum.P90),
		SettleMax:         time.Duration(sum.Max),
	}, nil
}

// PlaceSessions attaches 2·count hosts to the topology, dedicates one source
// host per session (the paper's one-session-per-source-host rule), draws
// destinations uniformly at random, and registers the sessions with the
// network. Paths come from the network's own resolver (Network.HostPath).
// Any generated topology works: transit-stub and internet-scale topologies
// both satisfy topology.Hosted.
func PlaceSessions(topo topology.Hosted, net *network.Network, count int) ([]*network.Session, error) {
	hosts := topo.AddHosts(2 * count)
	rng := topo.Rand()
	type pair struct {
		idx      int
		src, dst graph.NodeID
	}
	pairs := make([]pair, count)
	for i := 0; i < count; i++ {
		src := hosts[i]
		dst := hosts[rng.Intn(len(hosts))]
		for dst == src {
			dst = hosts[rng.Intn(len(hosts))]
		}
		pairs[i] = pair{idx: i, src: src, dst: dst}
	}
	// Sessions are registered grouped by source router (stably), so their
	// IDs follow this order, and so does every CSV an experiment writes.
	g := topo.Topology()
	sorted := append([]pair(nil), pairs...)
	sort.SliceStable(sorted, func(a, b int) bool {
		return g.HostRouter(sorted[a].src) < g.HostRouter(sorted[b].src)
	})
	sessions := make([]*network.Session, count)
	for _, p := range sorted {
		path, err := net.HostPath(p.src, p.dst)
		if err != nil {
			return nil, err
		}
		s, err := net.NewSession(p.src, p.dst, path)
		if err != nil {
			return nil, err
		}
		sessions[p.idx] = s
	}
	return sessions, nil
}
