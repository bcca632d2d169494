package exp

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"bneck/internal/metrics"
	"bneck/internal/topology"
)

// Exp2Config parameterizes Experiment 2 (Figure 6): five phases of session
// dynamics on a Medium/LAN network, with per-packet-type traffic binned over
// time. Paper scale: Base=100,000, Dyn=20,000.
type Exp2Config struct {
	Topology topology.Params
	Scenario topology.Scenario
	// Base sessions join in phase 1.
	Base int
	// Dyn sessions leave (phase 2), change rates (phase 3), join (phase 4),
	// and do all three at once (phase 5), so Dyn must be positive. Phases 3
	// and 5 draw Dyn changers from the Base − Dyn sessions left, so Base
	// must be at least 2 × Dyn.
	Dyn      int
	Seed     int64
	Progress io.Writer
}

// Experiment 2's timings: the burst width of each phase's dynamics (paper:
// 1 ms) and the gap from a phase's quiescence to the next phase's burst. The
// traffic bins are network.DefaultConfig's, Figure 6's 5 ms.
const (
	exp2Window = time.Millisecond
	exp2Gap    = 10 * time.Millisecond
)

// DefaultExp2 is the laptop-scale default (paper: 100,000/20,000).
func DefaultExp2() Exp2Config {
	return Exp2Config{
		Topology: topology.Medium,
		Scenario: topology.LAN,
		Base:     10_000,
		Dyn:      2_000,
		Seed:     1,
	}
}

// Exp2Phase describes one phase of Figure 6.
type Exp2Phase struct {
	Name string
	// Start is when the phase's dynamics burst begins.
	Start time.Duration
	// Quiescence is when the network went quiescent again.
	Quiescence time.Duration
	// Took = Quiescence - Start, the number the paper quotes per phase.
	Took time.Duration
	// Packets sent during the phase.
	Packets uint64
}

// Exp2Result is the data behind Figure 6.
type Exp2Result struct {
	// Network and Scenario name the run's topology, as in Exp1Row.
	Network, Scenario string
	Phases            []Exp2Phase
	// Bins are per-interval packet counts by type over the whole run.
	Bins []metrics.Bin
}

// RunExperiment2 executes the five phases as one generated script
// (exp2Script), every phase validated against the oracle.
func RunExperiment2(cfg Exp2Config) (*Exp2Result, error) {
	if cfg.Dyn < 1 {
		return nil, fmt.Errorf("exp2: dyn %d < 1", cfg.Dyn)
	} else if cfg.Base < 2*cfg.Dyn {
		return nil, fmt.Errorf("exp2: base %d < 2×dyn %d", cfg.Base, cfg.Dyn)
	}
	src, err := exp2Script(cfg)
	if err != nil {
		return nil, err
	}
	run, err := runScript(src)
	if err != nil {
		return nil, err
	}
	res := &Exp2Result{Network: cfg.Topology.Name, Scenario: cfg.Scenario.String(), Bins: run.Bins}
	for i, name := range []string{
		fmt.Sprintf("join %d", cfg.Base), fmt.Sprintf("leave %d", cfg.Dyn), fmt.Sprintf("change %d", cfg.Dyn),
		fmt.Sprintf("join %d", cfg.Dyn), fmt.Sprintf("mixed 3x%d", cfg.Dyn),
	} {
		ep := run.Epochs[i]
		res.Phases = append(res.Phases, Exp2Phase{
			Name: name, Start: ep.At, Quiescence: ep.Quiescence, Took: ep.Requiescence, Packets: ep.Packets,
		})
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "exp2 phase %-22s start=%-10v quiescent=%-10v took=%v\n",
				name, ep.At, ep.Quiescence, ep.Requiescence)
		}
	}
	return res, nil
}

// exp2Script generates Experiment 2 as a scenario script: Base sessions join
// in an `after 0s` block, and each later phase is an after block exp2Gap past
// the previous phase's quiescence — Dyn leave, Dyn change their demand, Dyn
// new sessions join, then Dyn of each at once. Every draw (pairs, offsets,
// demands, leavers, changers) is made here.
func exp2Script(cfg Exp2Config) (string, error) {
	var b strings.Builder
	// Sessions: Base (phase 1) + Dyn (phase 4) + Dyn (phase 5) joiners.
	if _, _, err := cellScript(&b, cfg.Topology, cfg.Scenario, false, cfg.Seed, cfg.Base+2*cfg.Dyn); err != nil {
		return "", err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 13))
	demands := MixedDemands(0.5, 1, 100)
	block := func(after time.Duration, events ...[]event) {
		fmt.Fprintf(&b, "after %v {\n", after)
		writeChurn(&b, events...)
		b.WriteString("}\n")
	}
	active := span(0, cfg.Base) // indexes of the active sessions
	block(0, draws("join", active, exp2Window, unbounded, rng))
	leavers := sample(active, cfg.Dyn, rng)
	active = removeAll(active, leavers)
	block(exp2Gap, draws("leave", leavers, exp2Window, nil, rng))
	block(exp2Gap, draws("change", sample(active, cfg.Dyn, rng), exp2Window, demands, rng))
	joiners := span(cfg.Base, cfg.Dyn)
	block(exp2Gap, draws("join", joiners, exp2Window, unbounded, rng))
	active = append(active, joiners...)
	joins := draws("join", span(cfg.Base+cfg.Dyn, cfg.Dyn), exp2Window, unbounded, rng)
	leavers = sample(active, cfg.Dyn, rng)
	active = removeAll(active, leavers)
	changers := sample(active, cfg.Dyn, rng)
	block(exp2Gap, joins, draws("leave", leavers, exp2Window, nil, rng), draws("change", changers, exp2Window, demands, rng))
	return b.String(), nil
}
