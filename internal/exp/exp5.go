package exp

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"bneck/internal/control"
	"bneck/internal/graph"
	"bneck/internal/rate"
	"bneck/internal/topology"
)

// Exp5Config parameterizes Experiment 5, the path re-optimization study: a
// base population joins a transit-stub network, a batch of in-use router
// links fails (forcing detour migrations), and the links are then restored.
// Each sweep cell runs the identical generated script (exp5Script) twice —
// once under the Pinned policy (sessions stay on their detours forever, the
// paper's behavior) and once under ReoptimizeOnRestore — and measures what
// re-optimization buys (path hops regained, rate regained) against what it
// costs (extra reconfiguration packets). Every phase is validated against
// the water-filling oracle.
type Exp5Config struct {
	Sizes     []topology.Params
	Scenarios []topology.Scenario
	Seeds     []int64
	// Sessions is the base population joining in the base phase.
	Sessions int
	// Fails is how many distinct in-use duplex router links fail in the
	// failure phase (all restored together in the restore phase).
	Fails    int
	Progress io.Writer
	// Workers bounds how many sweep cells run concurrently; results are
	// byte-identical to a serial run (each cell owns its engines and RNGs).
	Workers int
}

// Experiment 5's timings: the burst width of the base join phase and the gap
// from a phase's quiescence to the next phase's events.
const (
	exp5Window = time.Millisecond
	exp5Gap    = 5 * time.Millisecond
)

// DefaultExp5 is a laptop-scale default covering both propagation models.
func DefaultExp5() Exp5Config {
	return Exp5Config{
		Sizes:     []topology.Params{topology.Small},
		Scenarios: []topology.Scenario{topology.LAN, topology.WAN},
		Seeds:     []int64{1, 2},
		Sessions:  300,
		Fails:     4,
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
	if cfg.Sessions < 1 {
		return nil, fmt.Errorf("exp5: need at least one session")
	}
	if cfg.Fails < 1 {
		return nil, fmt.Errorf("exp5: need at least one failure")
	}
	return sweep(grid(cfg.Sizes, cfg.Scenarios, cfg.Seeds), cfg.Workers, cfg.Progress,
		func(c gridCell[int64]) string { return fmt.Sprintf("exp5 %s/%s/seed%d", c.size.Name, c.scen, c.n) },
		func(c gridCell[int64]) ([]Exp5Row, string, error) {
			rows, err := runExp5Cell(cfg, c.size, c.scen, c.n)
			if err != nil {
				return nil, "", err
			}
			last := rows[len(rows)-1]
			return rows, fmt.Sprintf("exp5 %-6s %-3s seed=%-3d reoptimized=%-3d reconfig_pkts=%d\n",
				c.size.Name, c.scen, c.n, last.Reoptimized, last.ReconfigPackets), nil
		})
}

// exp5Script generates one Experiment 5 cell as a scenario script without
// its policy line: the base join burst, a block failing cfg.Fails in-use
// links picked from sessions drawn over the whole population (so the
// detours multiply), and a block restoring them all. It also returns the
// topology the script names and the sessions' host pairs in declaration
// order.
func exp5Script(cfg Exp5Config, size topology.Params, scen topology.Scenario, seed int64) (string, topology.Hosted, [][2]graph.NodeID, error) {
	var b strings.Builder
	topo, pairs, err := cellScript(&b, size, scen, false, seed, cfg.Sessions)
	if err != nil {
		return "", nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed + 41))
	b.WriteString("after 0s {\n")
	writeChurn(&b, draws("join", span(0, cfg.Sessions), exp5Window, unbounded, rng))
	fmt.Fprintf(&b, "}\nafter %v {\n", exp5Gap)
	for range cfg.Fails {
		fmt.Fprintf(&b, "at 0s fail in-use pick=%d\n", rng.Intn(cfg.Sessions))
	}
	fmt.Fprintf(&b, "}\nafter %v {\n%s}\n", exp5Gap, strings.Repeat("at 0s restore failed\n", cfg.Fails))
	return b.String(), topo, pairs, nil
}

var exp5Phases = []string{"base", "fail", "restore"}

func runExp5Cell(cfg Exp5Config, size topology.Params, scen topology.Scenario, seed int64) ([]Exp5Row, error) {
	src, topo, pairs, err := exp5Script(cfg, size, scen, seed)
	if err != nil {
		return nil, err
	}
	// HopsBest is measured on the generator's copy of the topology, with the
	// phase's failed links down, so scripts run no path queries for it.
	g := topo.Topology()
	paths := graph.NewResolver(g, 0)
	node := make(map[string]graph.NodeID, g.NumNodes())
	for i := range graph.NodeID(g.NumNodes()) {
		node[g.Node(i).Name] = i
	}
	var rows []Exp5Row
	for _, policy := range []control.Policy{control.Pinned, control.ReoptimizeOnRestore} {
		res, err := runScript("policy " + policy.String() + "\n" + src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", policy, err)
		}
		var reconfig uint64
		for i, ep := range res.Epochs {
			for _, ev := range ep.Events {
				f := strings.Fields(ev)
				if f[0] != "fail" && f[0] != "restore" {
					continue // the base phase's joins
				}
				a, b, _ := strings.Cut(f[1], "-")
				for l := range g.Out(node[a]) {
					if g.LinkTo(l) != node[b] {
						continue
					}
					if f[0] == "fail" {
						g.FailLink(l)
						g.FailLink(g.LinkReverse(l))
					} else {
						g.RestoreLink(l)
						g.RestoreLink(g.LinkReverse(l))
					}
				}
			}
			row := Exp5Row{
				Network: size.Name, Scenario: scen.String(), Seed: seed,
				Policy: policy.String(), Phase: exp5Phases[i],
				Active: ep.Active, Stranded: ep.Stranded,
				Migrated: ep.Migrations, Reoptimized: ep.Reoptimizations,
				Requiescence: ep.Requiescence, Packets: ep.Packets,
				ReconfigPackets: ep.ReconfigPackets - reconfig,
			}
			reconfig = ep.ReconfigPackets
			sum := rate.Zero
			for k, s := range ep.Sessions {
				if s.State != control.Active {
					continue
				}
				row.HopsActive += len(s.Path)
				if best, err := paths.HostPath(pairs[k][0], pairs[k][1]); err == nil {
					row.HopsBest += len(best)
				}
				sum = sum.Add(s.Rate)
			}
			row.SumRateMbps = sum.Float64() / 1e6
			rows = append(rows, row)
		}
	}
	return rows, nil
}
