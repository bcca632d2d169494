package scenario

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"bneck/internal/control"
	"bneck/internal/graph"
	"bneck/internal/live"
	"bneck/internal/metrics"
	"bneck/internal/network"
	"bneck/internal/rate"
	"bneck/internal/sim"
)

// EpochResult summarizes one reconfiguration epoch: all events sharing a
// timestamp, or one after block, the re-quiescence that followed, and the
// network state after validation.
type EpochResult struct {
	// At is the scripted epoch time (virtual for the simulator). An after
	// block's is its start: its delay past the previous epoch's quiescence
	// on the simulator, past the previous epoch's At on the live runtime.
	At time.Duration
	// Applied is when the epoch actually fired: quiescence of a previous
	// epoch can overrun the scripted time, in which case the events apply
	// immediately after it.
	Applied time.Duration
	// Events describes the epoch's events, with the link each selector
	// resolved to.
	Events []string
	// Quiescence is the virtual time the network went silent again (on the
	// live runtime, which has no clock, Applied).
	Quiescence time.Duration
	// Requiescence = Quiescence − Applied, the packets-to-silence latency the
	// paper cares about (simulator only).
	Requiescence time.Duration
	// Packets sent during the epoch.
	Packets uint64
	// Active and Stranded count sessions after the epoch.
	Active   int
	Stranded int
	// Migrations, Reoptimizations and ReconfigPackets are the run's
	// counters so far (see Result), sampled after the epoch.
	Migrations, Reoptimizations, ReconfigPackets uint64
	// Sessions is every scripted session after the epoch, in script order.
	Sessions []SessionState
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
	// Bins are the simulator's per-interval packet counts by type over the
	// whole run (nil on the live runtime).
	Bins []metrics.Bin
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
	res, err := run(w, "sim", &simNet{net: net, eng: eng, deadline: opt.EpochDeadline})
	if err == nil {
		res.Bins = net.Stats().Bins()
	}
	return res, err
}

// RunLive executes the script on the concurrent actor runtime. Epochs apply
// in order; scripted timestamps and block offsets only sequence them (the
// runtime has no virtual clock). Every epoch is driven to quiescence (by
// termination detection) and validated.
func RunLive(sc *Script) (*Result, error) {
	w, err := build(sc)
	if err != nil {
		return nil, err
	}
	rt := live.New(w.g)
	defer rt.Close()
	rt.SetPathPolicy(sc.Policy)
	return run(w, "live", &liveNet{rt: rt})
}

// transport is what the epoch loop drives: the simulator or the live
// runtime, with sessions of type S.
type transport[S ratedSession] interface {
	register(src, dst graph.NodeID) (S, error)
	// clock is the virtual time after the last epoch; on the live runtime,
	// which has none, the last epoch's time.
	clock() time.Duration
	// apply applies one event, or schedules it at t.
	apply(sessions []S, ev resolvedEvent, t time.Duration) error
	// settle drives the epoch applied at at to quiescence and validates it;
	// it returns the simulator's quiescence time.
	settle(at time.Duration) (time.Duration, error)
	counters() (packets, migrations, reoptimizations, reconfigPackets uint64)
}

// run is the one epoch loop: it registers the scripted sessions, then, for
// every epoch, resolves its selectors, applies its events, settles it,
// samples its result and checks its expectations.
func run[S ratedSession](w *world, name string, tr transport[S]) (*Result, error) {
	sessions := make([]S, len(w.sc.Sessions))
	for i, d := range w.sc.Sessions {
		s, err := tr.register(w.nodes[d.Src], w.nodes[d.Dst])
		if err != nil {
			return nil, fmt.Errorf("scenario: session %q: %w", d.Name, err)
		}
		sessions[i] = s
	}
	out := &Result{Transport: name}
	sel := &selector{g: w.g, joined: make([]bool, len(sessions))}
	for _, ep := range w.epochs {
		if ep.block > 0 {
			ep.at = tr.clock() + ep.after
		}
		// The previous epoch's convergence may have overrun this timestamp.
		at := max(ep.at, tr.clock())
		if err := selectLinks(sel, sessions, ep); err != nil {
			return nil, &EpochError{At: ep.at, Err: err}
		}
		for _, ev := range ep.events {
			t := at
			if ep.block > 0 {
				t += ev.At // the event's offset inside its block
			}
			if err := tr.apply(sessions, ev, t); err != nil {
				return nil, &EpochError{At: ep.at, Err: err}
			}
		}
		q, err := tr.settle(at)
		if err != nil {
			return nil, &EpochError{At: ep.at, Err: err}
		}
		er := EpochResult{At: ep.at, Applied: at, Events: describe(ep.events), Quiescence: at}
		if q > at {
			er.Quiescence, er.Requiescence = q, q-at
		}
		pk := uint64(0)
		pk, er.Migrations, er.Reoptimizations, er.ReconfigPackets = tr.counters()
		er.Packets, out.TotalPackets = pk-out.TotalPackets, pk
		er.Sessions, er.Active, er.Stranded = snapshot(sessions)
		if err := checkExpectations(w, sessions, ep, &er); err != nil {
			return nil, &EpochError{At: ep.at, Err: err}
		}
		out.Epochs = append(out.Epochs, er)
	}
	out.TotalPackets, out.Migrations, out.Reoptimizations, out.ReconfigPackets = tr.counters()
	return out, nil
}

// simNet is the simulator transport.
type simNet struct {
	net      *network.Network
	eng      *sim.Engine
	deadline time.Duration
	// gen invalidates an earlier epoch's quiescence watchdog: a daemon
	// scheduled past that epoch's quiescence fires during some later
	// epoch's run, where pending events are legitimate.
	gen int
}

func (s *simNet) register(src, dst graph.NodeID) (simSession, error) {
	path, err := s.net.HostPath(src, dst)
	if err != nil {
		return simSession{}, err
	}
	ss, err := s.net.NewSession(src, dst, path)
	return simSession{ss}, err
}

func (s *simNet) clock() time.Duration { return s.eng.Now() }

func (s *simNet) apply(sessions []simSession, ev resolvedEvent, t time.Duration) error {
	switch ev.Op {
	case OpJoin:
		s.net.ScheduleJoin(sessions[ev.sessionIdx].Session, t, ev.Demand)
	case OpLeave:
		s.net.ScheduleLeave(sessions[ev.sessionIdx].Session, t)
	case OpChange:
		s.net.ScheduleChange(sessions[ev.sessionIdx].Session, t, ev.Demand)
	case OpFail:
		s.net.ScheduleLinkFail(t, ev.ab, ev.ba)
	case OpRestore:
		s.net.ScheduleLinkRestore(t, ev.ab, ev.ba)
	case OpSetCapacity:
		s.net.ScheduleSetCapacity(t, ev.Capacity, ev.ab, ev.ba)
	}
	return nil
}

func (s *simNet) settle(at time.Duration) (time.Duration, error) {
	overrun := false
	if s.deadline > 0 {
		s.gen++
		gen := s.gen
		s.eng.DaemonAt(at+s.deadline, func() {
			if gen == s.gen && s.eng.Pending() > 0 {
				overrun = true
				s.eng.Stop()
			}
		})
	}
	q := s.net.Run()
	if overrun {
		return 0, fmt.Errorf("%w: applied at %v, still busy at %v", ErrQuiescenceOverrun, at, at+s.deadline)
	}
	return q, s.net.Validate()
}

func (s *simNet) counters() (uint64, uint64, uint64, uint64) {
	return s.net.Stats().Total(), s.net.Migrations(), s.net.Reoptimizations(), s.net.ReconfigPackets()
}

// liveNet is the live transport.
type liveNet struct {
	rt   *live.Runtime
	last time.Duration
}

func (l *liveNet) register(src, dst graph.NodeID) (*live.Session, error) {
	path, err := l.rt.HostPath(src, dst)
	if err != nil {
		return nil, err
	}
	return l.rt.NewSession(path)
}

func (l *liveNet) clock() time.Duration { return l.last }

func (l *liveNet) apply(sessions []*live.Session, ev resolvedEvent, _ time.Duration) error {
	switch ev.Op {
	case OpJoin:
		return sessions[ev.sessionIdx].Join(ev.Demand)
	case OpLeave:
		sessions[ev.sessionIdx].Leave()
	case OpChange:
		return sessions[ev.sessionIdx].Change(ev.Demand)
	case OpFail:
		return l.rt.FailLinks(ev.ab, ev.ba)
	case OpRestore:
		return l.rt.RestoreLinks(ev.ab, ev.ba)
	case OpSetCapacity:
		return l.rt.SetLinkCapacity(ev.Capacity, ev.ab, ev.ba)
	}
	return nil
}

func (l *liveNet) settle(at time.Duration) (time.Duration, error) {
	l.last = at
	l.rt.WaitQuiescent()
	return 0, l.rt.Validate()
}

func (l *liveNet) counters() (packets, migrations, reoptimizations, reconfig uint64) {
	for _, lc := range l.rt.LinkPackets() {
		packets += lc.Packets
	}
	return packets, l.rt.Migrations(), l.rt.Reoptimizations(), l.rt.ReconfigPackets()
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

// SessionState is one session after an epoch quiesced and validated:
// its state, its current path and, while active, its granted rate.
type SessionState struct {
	State control.State
	Path  graph.Path
	Rate  rate.Rate
	// Settle is the simulator's settling time: from the current
	// incarnation's join to its last rate notification (zero on live).
	Settle time.Duration
}

// snapshot records every session's state, and counts the active and the
// stranded ones.
func snapshot[S ratedSession](sessions []S) (out []SessionState, active, stranded int) {
	out = make([]SessionState, len(sessions))
	for i, s := range sessions {
		out[i] = SessionState{State: s.State(), Path: s.Path()}
		if ss, ok := any(s).(simSession); ok {
			out[i].Settle = ss.SettlingTime()
		}
		switch out[i].State {
		case control.Active:
			active++
			out[i].Rate, _ = s.Rate()
		case control.Stranded:
			stranded++
		}
	}
	return out, active, stranded
}

// checkExpectations evaluates an epoch's expect events after it quiesced and
// validated: golden rates, and the migration, re-optimization and
// stranded-session counts the epoch's result sampled — identically on both
// transports.
func checkExpectations[S ratedSession](w *world, sessions []S, ep epoch, c *EpochResult) error {
	for _, ev := range ep.events {
		switch ev.Op {
		case OpExpectRate:
			got := assertedRate(w, sessions, ev)
			if !got.Equal(ev.Demand) {
				return fmt.Errorf("scenario: line %d: expect rate %s %v: got %v after epoch %v",
					ev.Line, ev.Session, ev.Demand, got, ep.at)
			}
		case OpExpectMigrated:
			if c.Migrations != uint64(ev.Count) {
				return fmt.Errorf("scenario: line %d: expect migrated %d: got %d after epoch %v",
					ev.Line, ev.Count, c.Migrations, ep.at)
			}
		case OpExpectStranded:
			if c.Stranded != ev.Count {
				return fmt.Errorf("scenario: line %d: expect stranded %d: got %d after epoch %v",
					ev.Line, ev.Count, c.Stranded, ep.at)
			}
		case OpExpectReoptimized:
			if c.Reoptimizations != uint64(ev.Count) {
				return fmt.Errorf("scenario: line %d: expect reoptimized %d: got %d after epoch %v",
					ev.Line, ev.Count, c.Reoptimizations, ep.at)
			}
		}
	}
	return nil
}

// assertedRate evaluates one expect-rate assertion: a session's granted
// rate, or the sum of a host's active sessions' granted rates (zero when
// departed, stranded, or rate-less).
func assertedRate[S ratedSession](w *world, sessions []S, ev resolvedEvent) rate.Rate {
	sum := rate.Zero
	for i, s := range sessions {
		if ev.sessionIdx >= 0 && i != ev.sessionIdx {
			continue
		}
		if ev.sessionIdx < 0 && w.nodes[w.sc.Sessions[i].Src] != ev.host {
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

// selector is the run-time state of the link selectors: the sessions the
// timeline has joined, and the links selectors failed that no `restore
// failed` brought back, oldest first.
type selector struct {
	g      *graph.Graph
	joined []bool
	failed [][2]graph.LinkID
}

// selectLinks resolves an epoch's selectors in event order against the
// state the previous epoch left, then records the epoch's joins and leaves.
// A selector skips links (and their reverses) that an earlier topology event
// of the epoch names or picked. It fails when a selector finds no link, or
// when a named fail or set-capacity hits a link a selector failed.
func selectLinks[S ratedSession](sel *selector, sessions []S, ep epoch) error {
	taken := make(map[graph.LinkID]bool)
	for i := range ep.events {
		ev := &ep.events[i]
		switch {
		case ev.Op != OpFail && ev.Op != OpRestore && ev.Op != OpSetCapacity:
			continue
		case !ev.Selected:
			if ev.Op != OpRestore && slices.ContainsFunc(sel.failed, func(p [2]graph.LinkID) bool { return p[0] == ev.ab || p[1] == ev.ab }) {
				return fmt.Errorf("scenario: line %d: %s %s-%s: a selector failed that link", ev.Line, ev.Op, ev.A, ev.B)
			}
		case ev.Op == OpRestore:
			if len(sel.failed) == 0 {
				return fmt.Errorf("scenario: line %d: restore failed: no selector-failed link is down", ev.Line)
			}
			ev.ab, ev.ba = sel.failed[0][0], sel.failed[0][1]
			sel.failed = sel.failed[1:]
		default:
			l, ok := inUse(sel, sessions, ev.Pick, taken)
			if !ok {
				return fmt.Errorf("scenario: line %d: %s in-use pick=%d: no up router link on an active session's path", ev.Line, ev.Op, ev.Pick)
			}
			ev.ab, ev.ba = l, sel.g.Link(l).Reverse
			if ev.Op == OpFail {
				sel.failed = append(sel.failed, [2]graph.LinkID{ev.ab, ev.ba})
			} else {
				ev.Capacity = sel.g.Capacity(l).DivInt(ev.Div)
			}
		}
		if ev.Selected {
			l := sel.g.Link(ev.ab)
			ev.A, ev.B = sel.g.Node(l.From).Name, sel.g.Node(l.To).Name
		}
		taken[ev.ab], taken[ev.ba] = true, true
	}
	for _, ev := range ep.events {
		if ev.Op == OpJoin || ev.Op == OpLeave {
			sel.joined[ev.sessionIdx] = ev.Op == OpJoin
		}
	}
	return nil
}

// inUse scans the joined sessions in declaration order from the pick-th
// (mod their count) and returns the first up router link on an active
// one's current path that is not taken.
func inUse[S ratedSession](sel *selector, sessions []S, pick int, taken map[graph.LinkID]bool) (graph.LinkID, bool) {
	var joined []int
	for i, j := range sel.joined {
		if j {
			joined = append(joined, i)
		}
	}
	for k := range joined {
		s := sessions[joined[(pick%len(joined)+k)%len(joined)]]
		if s.State() != control.Active {
			continue
		}
		p := s.Path()
		for _, l := range p[1 : len(p)-1] {
			if sel.g.LinkUp(l) && !taken[l] { // taken holds both directions
				return l, true
			}
		}
	}
	return graph.NoLink, false
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
			ep.At.Round(time.Microsecond), q, rq, ep.Packets, ep.Active, ep.Stranded, strings.Join(ep.Events, ", "))
	}
	fmt.Fprintf(w, "total packets: %d, migrations: %d, reoptimizations: %d, reconfig packets: %d (every epoch validated against the oracle)\n",
		res.TotalPackets, res.Migrations, res.Reoptimizations, res.ReconfigPackets)
}
