// Package exp drives the paper's three experiments (Section IV) and
// regenerates every evaluation figure: Figure 5 (Experiment 1), Figure 6
// (Experiment 2), Figures 7 and 8 (Experiment 3). Each experiment is
// parameterized so the full paper scale (hundreds of thousands of sessions)
// and a laptop scale (the defaults) run the same code. Experiments 1 and 2,
// and experiments 4 and 5 beyond the paper, are generated scenario scripts
// run through the scenario package's one epoch loop; Experiment 3 drives
// the simulator directly.
package exp

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"

	"bneck/internal/graph"
	"bneck/internal/metrics"
	"bneck/internal/rate"
	"bneck/internal/scenario"
	"bneck/internal/topology"
)

// Exp1Config parameterizes Experiment 1: many sessions join a quiet network
// within one millisecond; measure time to quiescence and packets sent.
type Exp1Config struct {
	Sizes         []topology.Params
	Scenarios     []topology.Scenario
	SessionCounts []int
	Seed          int64
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
	// Settle* are percentiles of the per-session settling time: from a
	// session's join to its final rate notification. The network-wide
	// quiescence time is driven by the slowest dependency chain; these show
	// how the rest of the population fares.
	SettleP50 time.Duration
	SettleP90 time.Duration
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
			src, _, err := BurstScript(c.size, c.scen, false, cfg.Seed, c.n, unbounded)
			if err != nil {
				return nil, "", err
			}
			res, err := runScript(src)
			if err != nil {
				return nil, "", err
			}
			row := BurstRow(res, c.n)
			row.Network, row.Scenario = c.size.Name, c.scen.String()
			return []Exp1Row{row}, fmt.Sprintf(
				"exp1 %-6s %-3s sessions=%-7d quiescence=%-12v packets=%d\n",
				row.Network, row.Scenario, row.Sessions, row.Quiescence, row.Packets), nil
		})
}

// BurstRow reads a join burst's row off its script's run; it leaves Network
// and Scenario to the caller. Packets per session are 0 when no session
// joined.
func BurstRow(res *scenario.Result, count int) Exp1Row {
	row := Exp1Row{Sessions: count, Packets: res.TotalPackets}
	var settle []float64
	if len(res.Epochs) > 0 { // a burst of no session has no epoch
		ep := res.Epochs[0]
		row.Quiescence = ep.Quiescence
		for _, s := range ep.Sessions {
			settle = append(settle, float64(s.Settle))
		}
	}
	sum := metrics.Summarize(settle)
	row.SettleP50, row.SettleP90 = time.Duration(sum.Median), time.Duration(sum.P90)
	if count > 0 {
		row.PacketsPerSession = float64(row.Packets) / float64(count)
	}
	return row
}

// BurstScript generates one join burst, Experiment 1's cell and cmd/bneck's
// run alike, as a scenario script: count sessions on the named topology of
// size (its internet rung when internet is set; scen is then not read),
// joining in one after block at offsets drawn uniformly from the first
// millisecond, with demands drawn from demand. The joins draw from their own
// stream seeded with seed+7. A burst of no session has no block. It also
// returns the topology the script names.
func BurstScript(size topology.Params, scen topology.Scenario, internet bool, seed int64, count int, demand func(*rand.Rand) rate.Rate) (string, topology.Hosted, error) {
	var b strings.Builder
	topo, _, err := cellScript(&b, size, scen, internet, seed, count)
	if err != nil || count == 0 {
		return b.String(), topo, err
	}
	b.WriteString("after 0s {\n")
	writeChurn(&b, draws("join", span(0, count), exp1JoinWindow, demand, rand.New(rand.NewSource(seed+7))))
	b.WriteString("}\n")
	return b.String(), topo, nil
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

// byRouter orders the pairs' indexes by source router (stably): the order
// a cell's script declares its sessions in, so their IDs follow it, and so
// does every CSV an experiment writes.
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
