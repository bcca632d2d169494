package exp

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"bneck/internal/topology"
)

// Exp4Config parameterizes Experiment 4, the dynamic-topology experiment the
// paper could not run: a base population joins a transit-stub network, then
// every reconfiguration epoch mixes session churn with topology events —
// link failures, restorations and capacity changes on links actually
// carrying traffic — and measures how much control traffic and virtual time
// B-Neck needs to re-reach quiescence. One sweep cell per (topology,
// scenario, seed); each cell is a generated scenario script (exp4Script)
// whose every epoch validates against the water-filling oracle.
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
	Churn    int
	Progress io.Writer
	// Workers bounds how many sweep cells run concurrently. Every cell has
	// its own engine, topology and seeded RNG, so results (and CSV output)
	// are byte-identical to a serial run. 0 or 1 runs serially; negative
	// selects GOMAXPROCS.
	Workers int
}

// Experiment 4's timings: the burst width of each epoch's events and the gap
// from an epoch's quiescence to the next epoch's burst.
const (
	exp4Window = time.Millisecond
	exp4Gap    = 5 * time.Millisecond
)

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
	if cfg.Epochs < 1 {
		return nil, fmt.Errorf("exp4: need at least one epoch")
	} else if cfg.Churn < 0 {
		return nil, fmt.Errorf("exp4: negative churn %d", cfg.Churn)
	}
	// Each epoch samples Churn leavers and then Churn changers from the
	// already-shrunk active set, so the base population must cover both.
	if cfg.Sessions < 2*cfg.Churn {
		return nil, fmt.Errorf("exp4: base sessions %d < 2×churn %d", cfg.Sessions, cfg.Churn)
	}
	return sweep(grid(cfg.Sizes, cfg.Scenarios, cfg.Seeds), cfg.Workers, cfg.Progress,
		func(c gridCell[int64]) string { return fmt.Sprintf("exp4 %s/%s/seed%d", c.size.Name, c.scen, c.n) },
		func(c gridCell[int64]) ([]Exp4Row, string, error) {
			src, divs, err := exp4Script(cfg, c.size, c.scen, c.n)
			if err != nil {
				return nil, "", err
			}
			res, err := runScript(src)
			if err != nil {
				return nil, "", err
			}
			rows := make([]Exp4Row, len(res.Epochs))
			var migrated uint64
			for e, ep := range res.Epochs {
				// The topology events, named as the table always has: "fail
				// a-b", "restore a-b" and "cap/<div> a-b".
				var events []string
				for _, ev := range ep.Events {
					switch f := strings.Fields(ev); f[0] {
					case "fail", "restore":
						events = append(events, f[0]+" "+f[1])
					case "set-capacity":
						events = append(events, fmt.Sprintf("cap/%d %s", divs[e], f[1]))
					}
				}
				rows[e] = Exp4Row{
					Network: c.size.Name, Scenario: c.scen.String(), Seed: c.n, Epoch: e,
					Events: strings.Join(events, "+"), Joins: cfg.Churn, Leaves: cfg.Churn, Changes: cfg.Churn,
					Active: ep.Active, Stranded: ep.Stranded, Migrated: ep.Migrations - migrated,
					Requiescence: ep.Requiescence, Packets: ep.Packets,
				}
				migrated = ep.Migrations
			}
			rows[0].Events, rows[0].Joins, rows[0].Leaves, rows[0].Changes = "join burst", cfg.Sessions, 0, 0
			return rows, fmt.Sprintf("exp4 %-6s %-3s seed=%-3d epochs=%-3d packets=%d\n",
				c.size.Name, c.scen, c.n, len(rows)-1, res.TotalPackets), nil
		})
}

// exp4Script generates one Experiment 4 cell as a scenario script: the base
// join burst, then one after block per epoch. It also returns each epoch's
// capacity divisor (0 where the epoch cuts no capacity).
func exp4Script(cfg Exp4Config, size topology.Params, scen topology.Scenario, seed int64) (string, []int, error) {
	var b strings.Builder
	// All sessions — the base population and every epoch's joiners — are
	// declared up front; a joiner whose path broke before its join reroutes
	// at join time.
	if _, _, err := cellScript(&b, size, scen, false, seed, cfg.Sessions+cfg.Epochs*cfg.Churn); err != nil {
		return "", nil, err
	}
	rng := rand.New(rand.NewSource(seed + 31))
	demands := MixedDemands(0.3, 1, 100)
	b.WriteString("after 0s {\n")
	active := span(0, cfg.Sessions)
	writeChurn(&b, draws("join", active, exp4Window, unbounded, rng))
	divs := make([]int, cfg.Epochs+1)
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		// Fail one in-use router link (duplex), every other epoch restore the
		// oldest failed one, and every third cut another in-use link's
		// capacity to a half or a third. The picks rotate, so successive
		// epochs disturb different parts of the network.
		fmt.Fprintf(&b, "}\nafter %v {\nat 0s fail in-use pick=%d\n", exp4Gap, epoch*7)
		if epoch%2 == 0 {
			b.WriteString("at 0s restore failed\n")
		}
		if epoch%3 == 0 {
			divs[epoch] = 3 - rng.Intn(2)
			fmt.Fprintf(&b, "at 0s set-capacity in-use pick=%d div=%d\n", epoch*13, divs[epoch])
		}
		// Session churn: joiners from the declared pool, leavers and changers
		// sampled from the active set.
		firstJoin := cfg.Sessions + (epoch-1)*cfg.Churn
		joiners := span(firstJoin, cfg.Churn)
		joins := draws("join", joiners, exp4Window, demands, rng)
		leavers := sample(active, cfg.Churn, rng)
		active = removeAll(active, leavers)
		leaves := draws("leave", leavers, exp4Window, nil, rng)
		writeChurn(&b, joins, leaves, draws("change", sample(active, cfg.Churn, rng), exp4Window, demands, rng))
		active = append(active, joiners...)
	}
	b.WriteString("}\n")
	return b.String(), divs, nil
}
