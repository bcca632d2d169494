package exp

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"bneck/internal/control"
	"bneck/internal/graph"
	"bneck/internal/network"
	"bneck/internal/rate"
	"bneck/internal/sim"
	"bneck/internal/topology"
	"bneck/internal/trace"
)

// Exp4Config parameterizes Experiment 4, the dynamic-topology experiment the
// paper could not run: a base population joins a transit-stub network, then
// every reconfiguration epoch mixes session churn with topology events —
// link failures, restorations and capacity changes on links actually
// carrying traffic — and measures how much control traffic and virtual time
// B-Neck needs to re-reach quiescence. Every epoch is validated against the
// water-filling oracle. One sweep cell per (topology, scenario, seed).
type Exp4Config struct {
	Sizes     []topology.Params
	Scenarios []topology.Scenario
	Seeds     []int64
	// Sessions is the base population joining in epoch 0.
	Sessions int
	// Epochs is the number of reconfiguration epochs after the base join.
	Epochs int
	// Churn sessions join, Churn leave and Churn change their demand in every
	// epoch, alongside the topology events.
	Churn int
	// Window is the burst width of each epoch's events.
	Window time.Duration
	// Gap separates an epoch's quiescence from the next epoch's burst.
	Gap time.Duration
	// Validate cross-checks every epoch against the centralized oracle.
	Validate bool
	Progress io.Writer
	// Workers bounds how many sweep cells run concurrently. Every cell has
	// its own engine, topology and seeded RNG, so results (and CSV output)
	// are byte-identical to a serial run. 0 or 1 runs serially; negative
	// selects GOMAXPROCS.
	Workers int
	// Policy is the churn sweep's path re-optimization policy (zero value:
	// pinned); with ReoptimizeOnRestore restores also move sessions back.
	Policy control.Policy
}

// DefaultExp4 is a laptop-scale default. It sweeps both propagation models:
// the WAN cells are the paper-style wide-area failure sweep.
func DefaultExp4() Exp4Config {
	return Exp4Config{
		Sizes:     []topology.Params{topology.Small},
		Scenarios: []topology.Scenario{topology.LAN, topology.WAN},
		Seeds:     []int64{1, 2},
		Sessions:  500,
		Epochs:    8,
		Churn:     25,
		Window:    time.Millisecond,
		Gap:       5 * time.Millisecond,
		Validate:  true,
	}
}

// Exp4Row is one reconfiguration epoch of one sweep cell. Epoch 0 is the
// base join burst; later epochs carry the topology events.
type Exp4Row struct {
	Network  string
	Scenario string
	Seed     int64
	Epoch    int
	// Events summarizes the epoch's topology events ("fail s2.0-s2.1" etc.).
	Events string
	// Joins/Leaves/Changes are the epoch's session churn counts.
	Joins, Leaves, Changes int
	// Active and Stranded count sessions after the epoch re-quiesced.
	Active   int
	Stranded int
	// Migrated counts sessions the epoch's failures rerouted.
	Migrated uint64
	// Requiescence is the virtual time from the epoch's burst start to
	// renewed quiescence — the paper's packets-to-silence latency dimension.
	Requiescence time.Duration
	// Packets is the control traffic the epoch cost.
	Packets uint64
}

// RunExperiment4 executes the sweep and returns one row per (cell, epoch).
// Cells run across cfg.Workers goroutines; rows and progress lines are
// byte-identical to a serial run.
func RunExperiment4(cfg Exp4Config) ([]Exp4Row, error) {
	if cfg.Window <= 0 {
		cfg.Window = time.Millisecond
	}
	if cfg.Gap <= 0 {
		cfg.Gap = 5 * time.Millisecond
	}
	if cfg.Epochs < 1 {
		return nil, fmt.Errorf("exp4: need at least one epoch")
	}
	// Each epoch samples Churn leavers and then Churn changers from the
	// already-shrunk active set, so the base population must cover both.
	if cfg.Sessions < 2*cfg.Churn {
		return nil, fmt.Errorf("exp4: base sessions %d < 2×churn %d", cfg.Sessions, cfg.Churn)
	}
	return sweep(grid(cfg.Sizes, cfg.Scenarios, cfg.Seeds), cfg.Workers, cfg.Progress,
		func(c gridCell[int64]) string { return fmt.Sprintf("exp4 %s/%s/seed%d", c.size.Name, c.scen, c.n) },
		func(c gridCell[int64]) ([]Exp4Row, string, error) {
			rows, err := runExp4Cell(cfg, c.size, c.scen, c.n)
			if err != nil {
				return nil, "", err
			}
			var pk uint64
			for _, r := range rows {
				pk += r.Packets
			}
			return rows, fmt.Sprintf("exp4 %-6s %-3s seed=%-3d epochs=%-3d packets=%d\n",
				c.size.Name, c.scen, c.n, len(rows)-1, pk), nil
		})
}

func runExp4Cell(cfg Exp4Config, size topology.Params, scen topology.Scenario, seed int64) ([]Exp4Row, error) {
	topo, err := topology.Generate(size, scen, seed)
	if err != nil {
		return nil, err
	}
	g := topo.Graph
	netCfg := network.DefaultConfig()
	netCfg.PathPolicy = cfg.Policy
	eng := sim.New()
	net := network.New(g, eng, netCfg)

	// All sessions — the base population and every epoch's joiners — are
	// placed up front (the exp2 pattern). Joiners whose resolved path breaks
	// before their join fires reroute at join time.
	total := cfg.Sessions + cfg.Epochs*cfg.Churn
	sessions, err := PlaceSessions(topo, net, total)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 31))
	demands := trace.MixedDemands(0.3, 1, 100)

	var rows []Exp4Row
	var lastPackets, lastMigrated uint64
	runEpoch := func(epoch int, start time.Duration, events string, joins, leaves, changes int) error {
		q := net.Run()
		// Oracle-validate only epochs that could have moved the allocation:
		// ones whose churn or topology events touched the session set or a
		// capacity. An idle epoch (possible when Churn is 0 and no in-use
		// link was found) re-quiesces instantly with the allocation the
		// previous epoch already validated — on Big cells the skipped
		// water-filling run is a real saving.
		changed := epoch == 0 || joins+leaves+changes > 0 || events != ""
		if cfg.Validate && changed {
			if err := net.Validate(); err != nil {
				return fmt.Errorf("epoch %d: %w", epoch, err)
			}
		}
		active, stranded := 0, 0
		for _, s := range sessions {
			switch {
			case s.Stranded():
				stranded++
			case s.Active():
				active++
			}
		}
		pk, mg := net.Stats().Total(), net.Migrations()
		req := time.Duration(0)
		if q > start {
			req = q - start
		}
		rows = append(rows, Exp4Row{
			Network: size.Name, Scenario: scen.String(), Seed: seed, Epoch: epoch,
			Events: events, Joins: joins, Leaves: leaves, Changes: changes,
			Active: active, Stranded: stranded, Migrated: mg - lastMigrated,
			Requiescence: req, Packets: pk - lastPackets,
		})
		lastPackets, lastMigrated = pk, mg
		return nil
	}

	// Epoch 0: base join burst.
	schedule(net, sessions, trace.Joins(0, cfg.Sessions, 0, cfg.Window, trace.Unbounded, rng))
	active := make([]int, 0, total)
	for i := 0; i < cfg.Sessions; i++ {
		active = append(active, i)
	}
	if err := runEpoch(0, 0, "join burst", cfg.Sessions, 0, 0); err != nil {
		return nil, err
	}

	// linkInUse returns an up link on an active session's router segment,
	// scanning sessions round-robin from a rotating offset so successive
	// epochs disturb different parts of the network.
	linkInUse := func(offset int, exclude map[graph.LinkID]bool) (graph.LinkID, bool) {
		for k := 0; k < len(active); k++ {
			s := sessions[active[(offset+k)%len(active)]]
			if !s.Active() {
				continue
			}
			cur := s.Current()
			p := cur.Path
			for _, l := range p[1 : len(p)-1] {
				if g.LinkUp(l) && !exclude[l] && !exclude[g.Link(l).Reverse] {
					return l, true
				}
			}
		}
		return graph.NoLink, false
	}
	linkName := func(l graph.LinkID) string {
		gl := g.Link(l)
		return g.Node(gl.From).Name + "-" + g.Node(gl.To).Name
	}

	var down []graph.LinkID
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		start := eng.Now() + cfg.Gap
		var events []string
		taken := make(map[graph.LinkID]bool)

		// Fail one in-use router link (duplex).
		if l, ok := linkInUse(epoch*7, taken); ok {
			taken[l] = true
			down = append(down, l)
			net.ScheduleLinkFail(start, l, g.Link(l).Reverse)
			events = append(events, "fail "+linkName(l))
		}
		// Every other epoch, restore the oldest failed link.
		if epoch%2 == 0 && len(down) > 0 {
			l := down[0]
			down = down[1:]
			net.ScheduleLinkRestore(start, l, g.Link(l).Reverse)
			events = append(events, "restore "+linkName(l))
		}
		// Every third epoch, reconfigure the capacity of another in-use link.
		if epoch%3 == 0 {
			if l, ok := linkInUse(epoch*13, taken); ok {
				taken[l] = true
				factor := 2
				if rng.Intn(2) == 0 {
					factor = 3
				}
				c := g.Link(l).Capacity.DivInt(factor)
				if c.Sign() <= 0 {
					c = rate.Mbps(10)
				}
				net.ScheduleSetCapacity(start, c, l, g.Link(l).Reverse)
				events = append(events, "cap/"+fmt.Sprint(factor)+" "+linkName(l))
			}
		}

		// Session churn: joiners from the pre-placed pool, leavers and
		// changers sampled from the active set.
		firstJoin := cfg.Sessions + (epoch-1)*cfg.Churn
		joins := trace.Joins(firstJoin, cfg.Churn, start, cfg.Window, demands, rng)
		leavers := trace.Sample(active, cfg.Churn, rng)
		active = removeAll(active, leavers)
		leaves := trace.Leaves(leavers, start, cfg.Window, rng)
		changers := trace.Sample(active, cfg.Churn, rng)
		schedule(net, sessions, joins, leaves, trace.Changes(changers, start, cfg.Window, demands, rng))
		for i := firstJoin; i < firstJoin+cfg.Churn; i++ {
			active = append(active, i)
		}

		if err := runEpoch(epoch, start, strings.Join(events, "+"), cfg.Churn, cfg.Churn, cfg.Churn); err != nil {
			return nil, err
		}
	}
	return rows, nil
}
