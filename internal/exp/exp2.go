package exp

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"bneck/internal/metrics"
	"bneck/internal/network"
	"bneck/internal/sim"
	"bneck/internal/topology"
	"bneck/internal/trace"
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
	// and do all three at once (phase 5).
	Dyn int
	// Window is the burst width of each phase's dynamics (paper: 1 ms).
	Window time.Duration
	// Gap separates a phase's quiescence from the next phase's burst.
	Gap time.Duration
	// BinSize is the traffic aggregation interval (paper: 5 ms).
	BinSize  time.Duration
	Seed     int64
	Validate bool
	Progress io.Writer
}

// DefaultExp2 is the laptop-scale default (paper: 100,000/20,000).
func DefaultExp2() Exp2Config {
	return Exp2Config{
		Topology: topology.Medium,
		Scenario: topology.LAN,
		Base:     10_000,
		Dyn:      2_000,
		Window:   time.Millisecond,
		Gap:      10 * time.Millisecond,
		BinSize:  5 * time.Millisecond,
		Seed:     1,
		Validate: true,
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
	Phases []Exp2Phase
	// Bins are per-interval packet counts by type over the whole run.
	Bins    []metrics.Bin
	Packets uint64
}

// RunExperiment2 executes the five phases.
func RunExperiment2(cfg Exp2Config) (*Exp2Result, error) {
	if cfg.Window <= 0 {
		cfg.Window = time.Millisecond
	}
	if cfg.Gap <= 0 {
		cfg.Gap = 10 * time.Millisecond
	}
	if cfg.Base < cfg.Dyn {
		return nil, fmt.Errorf("exp2: base %d < dyn %d", cfg.Base, cfg.Dyn)
	}
	topo, err := topology.Generate(cfg.Topology, cfg.Scenario, cfg.Seed)
	if err != nil {
		return nil, err
	}
	netCfg := network.DefaultConfig()
	netCfg.BinSize = cfg.BinSize
	eng := sim.New()
	net := network.New(topo.Graph, eng, netCfg)

	// Sessions: base (phase 1) + dyn (phase 4) + dyn (phase 5) joiners.
	total := cfg.Base + 2*cfg.Dyn
	sessions, err := PlaceSessions(topo, net, total)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 13))
	demands := trace.MixedDemands(0.5, 1, 100)

	res := &Exp2Result{}
	active := make([]int, 0, total) // indexes of currently active sessions
	lastPackets := uint64(0)

	runPhase := func(name string, start time.Duration, events []trace.Event) error {
		for _, ev := range events {
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
		q := net.Run()
		if cfg.Validate {
			if err := net.Validate(); err != nil {
				return fmt.Errorf("phase %q: %w", name, err)
			}
		}
		pk := net.Stats().Total()
		res.Phases = append(res.Phases, Exp2Phase{
			Name:       name,
			Start:      start,
			Quiescence: q,
			Took:       q - start,
			Packets:    pk - lastPackets,
		})
		lastPackets = pk
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "exp2 phase %-22s start=%-10v quiescent=%-10v took=%v\n",
				name, start, q, q-start)
		}
		return nil
	}

	// Phase 1: Base sessions join.
	joins := trace.Joins(0, cfg.Base, 0, cfg.Window, trace.Unbounded, rng)
	for i := 0; i < cfg.Base; i++ {
		active = append(active, i)
	}
	if err := runPhase(fmt.Sprintf("join %d", cfg.Base), 0, joins); err != nil {
		return nil, err
	}

	// Phase 2: Dyn sessions leave.
	start := eng.Now() + cfg.Gap
	leavers := trace.Sample(active, cfg.Dyn, rng)
	active = removeAll(active, leavers)
	if err := runPhase(fmt.Sprintf("leave %d", cfg.Dyn), start,
		trace.Leaves(leavers, start, cfg.Window, rng)); err != nil {
		return nil, err
	}

	// Phase 3: Dyn sessions change their maximum rate.
	start = eng.Now() + cfg.Gap
	changers := trace.Sample(active, cfg.Dyn, rng)
	if err := runPhase(fmt.Sprintf("change %d", cfg.Dyn), start,
		trace.Changes(changers, start, cfg.Window, demands, rng)); err != nil {
		return nil, err
	}

	// Phase 4: Dyn new sessions join.
	start = eng.Now() + cfg.Gap
	joins = trace.Joins(cfg.Base, cfg.Dyn, start, cfg.Window, trace.Unbounded, rng)
	for i := cfg.Base; i < cfg.Base+cfg.Dyn; i++ {
		active = append(active, i)
	}
	if err := runPhase(fmt.Sprintf("join %d", cfg.Dyn), start, joins); err != nil {
		return nil, err
	}

	// Phase 5: Dyn join + Dyn leave + Dyn change, all at once.
	start = eng.Now() + cfg.Gap
	joins = trace.Joins(cfg.Base+cfg.Dyn, cfg.Dyn, start, cfg.Window, trace.Unbounded, rng)
	leavers = trace.Sample(active, cfg.Dyn, rng)
	active = removeAll(active, leavers)
	changers = trace.Sample(active, cfg.Dyn, rng)
	mixed := trace.Merge(
		joins,
		trace.Leaves(leavers, start, cfg.Window, rng),
		trace.Changes(changers, start, cfg.Window, demands, rng),
	)
	if err := runPhase(fmt.Sprintf("mixed 3x%d", cfg.Dyn), start, mixed); err != nil {
		return nil, err
	}

	res.Bins = net.Stats().Bins()
	res.Packets = net.Stats().Total()
	return res, nil
}
