package scenario

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"bneck/internal/control"
	"bneck/internal/graph"
	"bneck/internal/live"
	"bneck/internal/network"
	"bneck/internal/rate"
	"bneck/internal/sim"
)

// EpochResult summarizes one reconfiguration epoch: all events sharing a
// timestamp, the re-quiescence that followed, and the network state after
// validation.
type EpochResult struct {
	// At is the scripted epoch time (virtual for the simulator).
	At time.Duration
	// Applied is when the epoch actually fired: quiescence of a previous
	// epoch can overrun the scripted time, in which case the events apply
	// immediately after it.
	Applied time.Duration
	// Events describes the epoch's events.
	Events []string
	// Quiescence is the virtual time the network went silent again
	// (simulator only).
	Quiescence time.Duration
	// Requiescence = Quiescence − Applied, the packets-to-silence latency the
	// paper cares about (simulator only).
	Requiescence time.Duration
	// Packets sent during the epoch (simulator only).
	Packets uint64
	// Active and Stranded count sessions after the epoch.
	Active   int
	Stranded int
	// sessions is every scripted session after the epoch, in script order.
	sessions []sessionState
}

// Result is a full scenario run. Every epoch passed oracle validation.
type Result struct {
	Transport    string
	Epochs       []EpochResult
	TotalPackets uint64
	Migrations   uint64
	// Reoptimizations counts policy-driven reroutes (nonzero only with a
	// `policy reoptimize` script directive).
	Reoptimizations uint64
	// ReconfigPackets is the control-packet cost of topology
	// reconfigurations: Leave cascades of force-departed incarnations plus
	// Join cascades of topology-driven rejoins.
	ReconfigPackets uint64
}

// SimOptions are the model checker's hooks into a simulator run. The zero
// value reproduces RunSim.
type SimOptions struct {
	// Chooser installs a schedule controller on the engine's same-time
	// tie-breaking — the model-checking hook (internal/mc).
	Chooser sim.Chooser
	// OracleCrossCheck makes every epoch's validation also check the
	// oracle's rates (Centralized B-Neck, waterfill.Solver) against the
	// classic WaterFilling and Verify's Definition-1 test on the same
	// instance — two independent algorithms, waterfill.ErrCrossCheck on any
	// disagreement. It is the explorer's oracle-exactness invariant.
	OracleCrossCheck bool
	// EpochDeadline bounds each epoch's re-quiescence: a daemon watchdog
	// stops the run once the clock passes applied+deadline with regular
	// events still pending, and RunSimOpts returns an EpochError wrapping
	// ErrQuiescenceOverrun. Zero disables the bound.
	EpochDeadline time.Duration
}

// ErrQuiescenceOverrun reports an epoch that was still busy when its
// SimOptions.EpochDeadline expired — the schedule explorer's quiescence-bound
// invariant. Test with errors.Is.
var ErrQuiescenceOverrun = errors.New("scenario: quiescence bound overrun")

// EpochError attributes a validation, expectation, or quiescence failure to
// the scripted epoch it occurred in. The schedule explorer unwraps it to
// classify which invariant a schedule violated.
type EpochError struct {
	// At is the scripted epoch time.
	At time.Duration
	// Err is the underlying failure (network.Validate, an expect assertion,
	// or ErrQuiescenceOverrun).
	Err error
}

func (e *EpochError) Error() string { return fmt.Sprintf("scenario: epoch %v: %v", e.At, e.Err) }
func (e *EpochError) Unwrap() error { return e.Err }

// RunSim executes the script on the deterministic discrete-event simulator,
// validating against the water-filling oracle at every quiescent epoch.
func RunSim(sc *Script) (*Result, error) {
	return RunSimOpts(sc, SimOptions{})
}

// RunSimOpts is RunSim with the model checker's hooks: a schedule chooser,
// the oracle cross-check and a per-epoch quiescence deadline.
func RunSimOpts(sc *Script, opt SimOptions) (*Result, error) {
	w, err := build(sc)
	if err != nil {
		return nil, err
	}
	cfg := network.DefaultConfig()
	cfg.PathPolicy = sc.Policy
	cfg.OracleCrossCheck = opt.OracleCrossCheck
	eng := sim.New()
	eng.SetChooser(opt.Chooser)
	net := network.New(w.g, eng, cfg)
	sessions := make([]simSession, len(sc.Sessions))
	for i, d := range sc.Sessions {
		path, err := net.HostPath(w.nodes[d.Src], w.nodes[d.Dst])
		if err != nil {
			return nil, fmt.Errorf("scenario: session %q: %w", d.Name, err)
		}
		s, err := net.NewSession(w.nodes[d.Src], w.nodes[d.Dst], path)
		if err != nil {
			return nil, fmt.Errorf("scenario: session %q: %w", d.Name, err)
		}
		sessions[i] = simSession{s}
	}

	out := &Result{Transport: "sim"}
	// epochGen invalidates the previous epoch's quiescence watchdog: a
	// daemon scheduled past an epoch's actual quiescence fires during some
	// later epoch's run, where pending events are legitimate.
	epochGen := 0
	overrun := false
	for _, ep := range w.epochs {
		at := ep.at
		if t := eng.Now(); at < t {
			at = t // the previous epoch's convergence overran this timestamp
		}
		before := net.Stats().Total()
		for _, ev := range ep.events {
			switch ev.Op {
			case OpJoin:
				net.ScheduleJoin(sessions[ev.sessionIdx].Session, at, ev.Demand)
			case OpLeave:
				net.ScheduleLeave(sessions[ev.sessionIdx].Session, at)
			case OpChange:
				net.ScheduleChange(sessions[ev.sessionIdx].Session, at, ev.Demand)
			case OpFail:
				net.ScheduleLinkFail(at, ev.ab, ev.ba)
			case OpRestore:
				net.ScheduleLinkRestore(at, ev.ab, ev.ba)
			case OpSetCapacity:
				net.ScheduleSetCapacity(at, ev.Capacity, ev.ab, ev.ba)
			}
		}
		if opt.EpochDeadline > 0 {
			epochGen++
			gen := epochGen
			deadline := at + opt.EpochDeadline
			eng.DaemonAt(deadline, func() {
				if gen == epochGen && eng.Pending() > 0 {
					overrun = true
					eng.Stop()
				}
			})
		}
		q := net.Run()
		if overrun {
			return nil, &EpochError{At: ep.at, Err: fmt.Errorf("%w: applied at %v, still busy at %v",
				ErrQuiescenceOverrun, at, at+opt.EpochDeadline)}
		}
		if err := net.Validate(); err != nil {
			return nil, &EpochError{At: ep.at, Err: err}
		}
		er := EpochResult{
			At:      ep.at,
			Applied: at,
			Events:  describe(ep.events),
			Packets: net.Stats().Total() - before,
		}
		er.sessions, er.Active, er.Stranded = snapshot(sessions)
		if err := checkExpectations(w, sc, sessions, ep, counters{net.Migrations(), net.Reoptimizations(), er.Stranded}); err != nil {
			return nil, &EpochError{At: ep.at, Err: err}
		}
		if q > at {
			er.Quiescence = q
			er.Requiescence = q - at
		} else {
			er.Quiescence = at // the epoch generated no traffic
		}
		out.Epochs = append(out.Epochs, er)
	}
	out.TotalPackets = net.Stats().Total()
	out.Migrations = net.Migrations()
	out.Reoptimizations = net.Reoptimizations()
	out.ReconfigPackets = net.ReconfigPackets()
	return out, nil
}

// RunLive executes the script on the concurrent actor runtime. Epochs apply
// in order; scripted timestamps only sequence them (the runtime has no
// virtual clock). Every epoch is driven to quiescence (by termination
// detection) and validated.
func RunLive(sc *Script) (*Result, error) {
	w, err := build(sc)
	if err != nil {
		return nil, err
	}
	rt := live.New(w.g)
	defer rt.Close()
	rt.SetPathPolicy(sc.Policy)
	sessions := make([]*live.Session, len(sc.Sessions))
	for i, d := range sc.Sessions {
		path, err := rt.HostPath(w.nodes[d.Src], w.nodes[d.Dst])
		if err != nil {
			return nil, fmt.Errorf("scenario: session %q: %w", d.Name, err)
		}
		s, err := rt.NewSession(path)
		if err != nil {
			return nil, fmt.Errorf("scenario: session %q: %w", d.Name, err)
		}
		sessions[i] = s
	}

	out := &Result{Transport: "live"}
	for _, ep := range w.epochs {
		for _, ev := range ep.events {
			switch ev.Op {
			case OpJoin:
				sessions[ev.sessionIdx].Join(ev.Demand)
			case OpLeave:
				sessions[ev.sessionIdx].Leave()
			case OpChange:
				sessions[ev.sessionIdx].Change(ev.Demand)
			case OpFail:
				rt.FailLinks(ev.ab, ev.ba)
			case OpRestore:
				rt.RestoreLinks(ev.ab, ev.ba)
			case OpSetCapacity:
				rt.SetLinkCapacity(ev.Capacity, ev.ab, ev.ba)
			}
		}
		rt.WaitQuiescent()
		if err := rt.Validate(); err != nil {
			return nil, &EpochError{At: ep.at, Err: err}
		}
		er := EpochResult{At: ep.at, Applied: ep.at, Events: describe(ep.events)}
		er.sessions, er.Active, er.Stranded = snapshot(sessions)
		if err := checkExpectations(w, sc, sessions, ep, counters{rt.Migrations(), rt.Reoptimizations(), er.Stranded}); err != nil {
			return nil, &EpochError{At: ep.at, Err: err}
		}
		out.Epochs = append(out.Epochs, er)
	}
	for _, lc := range rt.LinkPackets() {
		out.TotalPackets += lc.Packets
	}
	out.Migrations = rt.Migrations()
	out.Reoptimizations = rt.Reoptimizations()
	out.ReconfigPackets = rt.ReconfigPackets()
	return out, nil
}

// ratedSession is the assertion surface both transports' sessions share.
type ratedSession interface {
	State() control.State
	Path() graph.Path // the current incarnation's
	Rate() (rate.Rate, bool)
}

// simSession gives a simulated session the current-path accessor of a live
// one.
type simSession struct{ *network.Session }

func (s simSession) Path() graph.Path { return s.Current().Path }

// sessionState is one session after an epoch quiesced and validated:
// its state, its current path and, while active, its granted rate.
type sessionState struct {
	state control.State
	path  graph.Path
	rate  rate.Rate
}

// snapshot records every session's state, and counts the active and the
// stranded ones.
func snapshot[S ratedSession](sessions []S) (out []sessionState, active, stranded int) {
	out = make([]sessionState, len(sessions))
	for i, s := range sessions {
		out[i] = sessionState{state: s.State(), path: s.Path()}
		switch out[i].state {
		case control.Active:
			active++
			out[i].rate, _ = s.Rate()
		case control.Stranded:
			stranded++
		}
	}
	return out, active, stranded
}

// counters are the runtime counters expect assertions read, sampled after
// an epoch quiesced and validated.
type counters struct {
	migrated    uint64
	reoptimized uint64
	stranded    int
}

// checkExpectations evaluates an epoch's expect events after it quiesced and
// validated: golden rates, the cumulative migration and re-optimization
// counts, and the current stranded-session count — identically on both
// transports.
func checkExpectations[S ratedSession](w *world, sc *Script, sessions []S, ep epoch, c counters) error {
	for _, ev := range ep.events {
		switch ev.Op {
		case OpExpectRate:
			got := assertedRate(w, sc, sessions, ev)
			if !got.Equal(ev.Demand) {
				return fmt.Errorf("scenario: line %d: expect rate %s %v: got %v after epoch %v",
					ev.Line, ev.Session, ev.Demand, got, ep.at)
			}
		case OpExpectMigrated:
			if c.migrated != uint64(ev.Count) {
				return fmt.Errorf("scenario: line %d: expect migrated %d: got %d after epoch %v",
					ev.Line, ev.Count, c.migrated, ep.at)
			}
		case OpExpectStranded:
			if c.stranded != ev.Count {
				return fmt.Errorf("scenario: line %d: expect stranded %d: got %d after epoch %v",
					ev.Line, ev.Count, c.stranded, ep.at)
			}
		case OpExpectReoptimized:
			if c.reoptimized != uint64(ev.Count) {
				return fmt.Errorf("scenario: line %d: expect reoptimized %d: got %d after epoch %v",
					ev.Line, ev.Count, c.reoptimized, ep.at)
			}
		}
	}
	return nil
}

// assertedRate evaluates one expect-rate assertion: a session's granted
// rate, or the sum of a host's active sessions' granted rates (zero when
// departed, stranded, or rate-less).
func assertedRate[S ratedSession](w *world, sc *Script, sessions []S, ev resolvedEvent) rate.Rate {
	sum := rate.Zero
	for i, s := range sessions {
		if ev.sessionIdx >= 0 && i != ev.sessionIdx {
			continue
		}
		if ev.sessionIdx < 0 && w.nodes[sc.Sessions[i].Src] != ev.host {
			continue
		}
		if s.State() != control.Active {
			continue
		}
		if r, ok := s.Rate(); ok {
			sum = sum.Add(r)
		}
	}
	return sum
}

func describe(events []resolvedEvent) []string {
	out := make([]string, len(events))
	for i, ev := range events {
		switch ev.Op {
		case OpJoin, OpLeave, OpChange:
			out[i] = fmt.Sprintf("%s %s", ev.Op, ev.Session)
		case OpExpectRate:
			out[i] = fmt.Sprintf("%s %s %v", ev.Op, ev.Session, ev.Demand)
		case OpExpectMigrated, OpExpectStranded, OpExpectReoptimized:
			out[i] = fmt.Sprintf("%s %d", ev.Op, ev.Count)
		case OpSetCapacity:
			out[i] = fmt.Sprintf("%s %s-%s %v", ev.Op, ev.A, ev.B, ev.Capacity)
		default:
			out[i] = fmt.Sprintf("%s %s-%s", ev.Op, ev.A, ev.B)
		}
	}
	return out
}

// Format renders a result as the table cmd/bneck prints.
func Format(w io.Writer, res *Result) {
	fmt.Fprintf(w, "%-10s %-12s %-14s %10s %8s %8s  %s\n",
		"epoch", "requiesced", "re-quiescence", "packets", "active", "strand", "events")
	for _, ep := range res.Epochs {
		q, rq := "-", "-"
		if res.Transport == "sim" {
			q = ep.Quiescence.Round(time.Microsecond).String()
			rq = ep.Requiescence.Round(time.Microsecond).String()
		}
		fmt.Fprintf(w, "%-10v %-12s %-14s %10d %8d %8d  %s\n",
			ep.At, q, rq, ep.Packets, ep.Active, ep.Stranded, strings.Join(ep.Events, ", "))
	}
	fmt.Fprintf(w, "total packets: %d, migrations: %d, reoptimizations: %d, reconfig packets: %d (every epoch validated against the oracle)\n",
		res.TotalPackets, res.Migrations, res.Reoptimizations, res.ReconfigPackets)
}
