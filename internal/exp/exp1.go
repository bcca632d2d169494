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
	Seed          int64
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

// exp1JoinWindow is the interval the joins land in (paper: 1 ms).
const exp1JoinWindow = time.Millisecond

// DefaultExp1 is a laptop-scale default: the paper sweeps 10…300,000
// sessions on Small/Medium/Big; here Small+Medium up to 5,000 (pass bigger
// counts and topology.Big explicitly for paper scale).
func DefaultExp1() Exp1Config {
	return Exp1Config{
		Sizes:         []topology.Params{topology.Small, topology.Medium},
		Scenarios:     []topology.Scenario{topology.LAN, topology.WAN},
		SessionCounts: []int{10, 100, 1000, 5000},
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
	for _, count := range cfg.SessionCounts {
		if count < 0 {
			return nil, fmt.Errorf("exp1: negative session count %d", count)
		}
	}
	return sweep(grid(cfg.Sizes, cfg.Scenarios, cfg.SessionCounts), cfg.Workers, cfg.Progress,
		func(c gridCell[int]) string { return fmt.Sprintf("exp1 %s/%s/%d", c.size.Name, c.scen, c.n) },
		func(c gridCell[int]) ([]Exp1Row, string, error) {
			topo, err := topology.Generate(c.size, c.scen, cfg.Seed)
			if err != nil {
				return nil, "", err
			}
			row, _, err := JoinBurst(topo, c.n, cfg.Seed, exp1JoinWindow, trace.Unbounded, cfg.Validate)
			if err != nil {
				return nil, "", err
			}
			row.Network, row.Scenario = c.size.Name, c.scen.String()
			return []Exp1Row{row}, fmt.Sprintf(
				"exp1 %-6s %-3s sessions=%-7d quiescence=%-12v packets=%d\n",
				row.Network, row.Scenario, row.Sessions, row.Quiescence, row.Packets), nil
		})
}

// JoinBurst is one join-burst run, Experiment 1's cell and cmd/bneck's
// simulated run alike: it places count sessions on topo (PlaceSessions),
// lands their joins uniformly in [0, window) with demands drawn from demand,
// runs to quiescence and, if validate, checks the rates against the oracle.
// The joins draw from their own stream seeded with seed+7. The returned row
// leaves Network and Scenario to the caller; its packets per session are 0
// when no session joined. The network it ran is returned for inspection.
func JoinBurst(topo topology.Hosted, count int, seed int64, window time.Duration, demand trace.DemandFn, validate bool) (Exp1Row, *network.Network, error) {
	eng := sim.New()
	net := network.New(topo.Topology(), eng, network.DefaultConfig())
	sessions, err := PlaceSessions(topo, net, count)
	if err != nil {
		return Exp1Row{}, nil, err
	}
	schedule(net, sessions, trace.Joins(0, count, 0, window, demand, rand.New(rand.NewSource(seed+7))))
	q := net.Run()
	if validate {
		if err := net.Validate(); err != nil {
			return Exp1Row{}, nil, err
		}
	}
	settle := make([]float64, 0, len(sessions))
	for _, s := range sessions {
		settle = append(settle, float64(s.SettlingTime()))
	}
	sum := metrics.Summarize(settle)
	row := Exp1Row{
		Sessions:   count,
		Quiescence: q,
		Packets:    net.Stats().Total(),
		Events:     eng.Events(),
		SettleP50:  time.Duration(sum.Median),
		SettleP90:  time.Duration(sum.P90),
		SettleMax:  time.Duration(sum.Max),
	}
	if count > 0 {
		row.PacketsPerSession = float64(row.Packets) / float64(count)
	}
	return row, net, nil
}

// schedule hands the events to the network list by list, in order.
func schedule(net *network.Network, sessions []*network.Session, events ...[]trace.Event) {
	for _, evs := range events {
		for _, ev := range evs {
			s := sessions[ev.Session]
			switch ev.Kind {
			case trace.Join:
				net.ScheduleJoin(s, ev.At, ev.Demand)
			case trace.Leave:
				net.ScheduleLeave(s, ev.At)
			case trace.Change:
				net.ScheduleChange(s, ev.At, ev.Demand)
			}
		}
	}
}

// drawPairs attaches 2·count hosts to the topology and draws one (source,
// destination) host pair per session: session i's source is the i-th new
// host (the paper's one-session-per-source-host rule), its destination a
// uniformly drawn other host.
func drawPairs(topo topology.Hosted, count int) ([][2]graph.NodeID, error) {
	if count < 0 {
		return nil, fmt.Errorf("exp: negative session count %d", count)
	}
	hosts := topo.AddHosts(2 * count)
	rng := topo.Rand()
	pairs := make([][2]graph.NodeID, count)
	for i := range pairs {
		src := hosts[i]
		dst := hosts[rng.Intn(len(hosts))]
		for dst == src {
			dst = hosts[rng.Intn(len(hosts))]
		}
		pairs[i] = [2]graph.NodeID{src, dst}
	}
	return pairs, nil
}

// PlaceSessions draws the sessions' host pairs (drawPairs) and registers the
// sessions with the network. Paths come from the network's own resolver
// (Network.HostPath). Any generated topology works: transit-stub and
// internet-scale topologies both satisfy topology.Hosted.
func PlaceSessions(topo topology.Hosted, net *network.Network, count int) ([]*network.Session, error) {
	pairs, err := drawPairs(topo, count)
	if err != nil {
		return nil, err
	}
	sessions := make([]*network.Session, count)
	for _, i := range byRouter(topo.Topology(), pairs) {
		path, err := net.HostPath(pairs[i][0], pairs[i][1])
		if err != nil {
			return nil, err
		}
		s, err := net.NewSession(pairs[i][0], pairs[i][1], path)
		if err != nil {
			return nil, err
		}
		sessions[i] = s
	}
	return sessions, nil
}

// byRouter orders the pairs' indexes by source router (stably): the order
// sessions are registered in, so their IDs follow it, and so does every CSV
// an experiment writes.
func byRouter(g *graph.Graph, pairs [][2]graph.NodeID) []int {
	order := make([]int, len(pairs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return g.HostRouter(pairs[order[a]][0]) < g.HostRouter(pairs[order[b]][0])
	})
	return order
}
