// Package scenario parses and executes declarative B-Neck event scripts:
// one timeline mixing session churn (join/leave/change) with topology events
// (link failures, restorations, capacity changes) over a hand-built or
// generated transit-stub topology. Scripts run on the deterministic
// simulator or on the live actor runtime, validating against the
// water-filling oracle at every quiescent epoch.
//
// Script grammar (line-oriented, '#' starts a comment):
//
//	# optional path policy (default pinned); reoptimize migrates sessions
//	# back onto shorter paths after restores — see control.Policy
//	policy reoptimize stretch=1.5 min-gain=2
//
//	# topology: either one generated...
//	topology transit-stub small lan seed=42 hosts=24
//	# ...an internet-ladder rung (paper ≈40, metro ≈1k, global ≈10k routers;
//	# hosts are named h0, h1, ...):
//	topology internet paper seed=7 hosts=8
//	# ...or hand-built from declarations:
//	router r1
//	router r2
//	host h1 r1                  # attach to router; default 100mbps, 1us
//	host h2 r2 50mbps 2us
//	link r1 r2 200mbps 1ms
//
//	session s1 h1 h2
//
//	at 0ms   join s1                 # demand defaults to unlimited
//	at 0ms   join s2 demand=40mbps
//	at 2ms   change s1 demand=10mbps
//	at 3ms   leave s1
//	at 4ms   set-capacity r1 r2 50mbps
//	at 5ms   fail r1 r2
//	at 6ms   restore r1 r2
//	at 7ms   expect rate s1 25mbps       # golden assertion after the epoch
//	at 7ms   expect rate h1 25mbps       # ...or the host's total source rate
//	at 7ms   expect migrated 2           # failure-forced reroutes so far
//	at 7ms   expect stranded 0           # sessions currently parked
//	at 7ms   expect reoptimized 1        # policy-driven reroutes so far
//
//	repeat 50 {                          # long-soak loop: the block repeats,
//	  at 1ms  fail r1 r2                 # each iteration shifted by the
//	  at 2ms  restore r1 r2              # block's largest timestamp (2ms)
//	}
//
// Topology events name a duplex link by its two endpoints and apply to both
// directions. Generated transit-stub topologies use the generator's
// deterministic node names (transit routers t<d>.<i>, stub routers
// s<d>.<i>, hosts h<n>).
//
// Events sharing a timestamp form one epoch: the runner applies the epoch,
// drives the network to quiescence, and validates the allocation before the
// next epoch. `expect` events assert, after their epoch has quiesced and
// validated, that the network is in a given state — `expect rate` that a
// session holds exactly the given rate (or, for a host, that its active
// sessions' granted rates sum to it), `expect migrated` that topology events
// have rerouted exactly n sessions so far, `expect stranded` that exactly n
// sessions are currently parked without a path — turning scripts into golden
// regression tests on both transports. Parse additionally replays the
// timeline statically (repeat blocks fully expanded) and rejects scripts
// that fail an already-failed link, restore an up link, reconfigure a failed
// link's capacity, or churn a session inconsistently.
package scenario

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"bneck/internal/control"
	"bneck/internal/rate"
	"bneck/internal/topology"
)

// Op is a timeline event kind.
type Op int

const (
	OpJoin Op = iota + 1
	OpLeave
	OpChange
	OpFail
	OpRestore
	OpSetCapacity
	OpExpectRate
	OpExpectMigrated
	OpExpectStranded
	OpExpectReoptimized
)

func (o Op) String() string {
	switch o {
	case OpJoin:
		return "join"
	case OpLeave:
		return "leave"
	case OpChange:
		return "change"
	case OpFail:
		return "fail"
	case OpRestore:
		return "restore"
	case OpSetCapacity:
		return "set-capacity"
	case OpExpectRate:
		return "expect rate"
	case OpExpectMigrated:
		return "expect migrated"
	case OpExpectStranded:
		return "expect stranded"
	case OpExpectReoptimized:
		return "expect reoptimized"
	default:
		return "unknown"
	}
}

// Event is one timeline entry. Session ops use Session (+Demand for
// join/change); topology ops use the A–B endpoint names (+Capacity for
// set-capacity). An expect-rate assertion names a session or a host in
// Session and carries the expected rate in Demand; expect-migrated,
// expect-stranded and expect-reoptimized assertions carry their expected
// count in Count.
type Event struct {
	At       time.Duration
	Op       Op
	Session  string
	A, B     string
	Demand   rate.Rate
	Capacity rate.Rate
	Count    int
	Line     int
}

// TopoKind distinguishes generated from hand-built topologies.
type TopoKind int

const (
	TopoHand TopoKind = iota + 1
	TopoTransitStub
	TopoInternet
)

// TopoSpec describes the script's topology source. Size/Scen parameterize a
// transit-stub generation, Inet an internet-ladder one.
type TopoSpec struct {
	Kind  TopoKind
	Size  topology.Params
	Scen  topology.Scenario
	Inet  topology.InternetParams
	Seed  int64
	Hosts int
}

// RouterDecl, HostDecl, LinkDecl and SessionDecl are the hand-built
// declarations, in script order.
type RouterDecl struct {
	Name string
	Line int
}

type HostDecl struct {
	Name     string
	Router   string
	Capacity rate.Rate
	Delay    time.Duration
	Line     int
}

type LinkDecl struct {
	A, B     string
	Capacity rate.Rate
	Delay    time.Duration
	Line     int
}

type SessionDecl struct {
	Name     string
	Src, Dst string
	Line     int
}

// Script is a parsed scenario.
type Script struct {
	Topo     TopoSpec
	Routers  []RouterDecl
	Hosts    []HostDecl
	Links    []LinkDecl
	Sessions []SessionDecl
	// Policy is the path re-optimization policy the runners install on the
	// transport (the `policy` directive; zero value = pinned).
	Policy control.Policy
	// Events are sorted by time; ties keep script order.
	Events []Event
}

// maxScriptHosts bounds transit-stub host counts so a typo cannot demand a
// gigantic generation.
const maxScriptHosts = 100_000

// maxScriptEvents bounds the expanded timeline (repeat blocks multiply
// events) so a typo cannot demand a gigantic run.
const maxScriptEvents = 100_000

// repeatBlock collects the events of one `repeat <n> { ... }` block while
// it is being parsed.
type repeatBlock struct {
	n      int
	line   int
	events []Event
}

// Parse reads a scenario script and statically checks it. Every error names
// the offending line.
func Parse(src string) (*Script, error) {
	sc := &Script{}
	sessions := make(map[string]int)
	routers := make(map[string]int)
	hosts := make(map[string]int)
	sawTopology := false
	sawPolicy := false
	var rep *repeatBlock

	lineNo := 0
	scanner := bufio.NewScanner(strings.NewReader(src))
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		lineNo++
		line := scanner.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("scenario: line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		if rep != nil && f[0] != "at" && f[0] != "}" {
			return nil, fail("only `at` events may appear inside a repeat block")
		}
		switch f[0] {
		case "repeat":
			if rep != nil {
				return nil, fail("repeat blocks cannot nest")
			}
			if len(f) != 3 || f[2] != "{" {
				return nil, fail("usage: repeat <n> {")
			}
			n, err := strconv.Atoi(f[1])
			if err != nil || n < 1 {
				return nil, fail("repeat count %q must be a positive integer", f[1])
			}
			rep = &repeatBlock{n: n, line: lineNo}
			continue
		case "}":
			if rep == nil {
				return nil, fail("`}` without an open repeat block")
			}
			if len(f) != 1 {
				return nil, fail("`}` must stand alone")
			}
			expanded, err := rep.expand()
			if err != nil {
				return nil, fmt.Errorf("scenario: line %d: %w", rep.line, err)
			}
			if len(sc.Events)+len(expanded) > maxScriptEvents {
				return nil, fail("repeat expands past %d events", maxScriptEvents)
			}
			sc.Events = append(sc.Events, expanded...)
			rep = nil
			continue
		}
		switch f[0] {
		case "topology":
			if sawTopology {
				return nil, fail("duplicate topology line")
			}
			sawTopology = true
			if err := parseTopology(sc, f[1:]); err != nil {
				return nil, fail("%v", err)
			}
		case "policy":
			if sawPolicy {
				return nil, fail("duplicate policy line")
			}
			sawPolicy = true
			if err := parsePolicy(sc, f[1:]); err != nil {
				return nil, fail("%v", err)
			}
		case "router":
			if len(f) != 2 {
				return nil, fail("usage: router <name>")
			}
			if err := declareName(routers, hosts, sessions, f[1]); err != nil {
				return nil, fail("%v", err)
			}
			routers[f[1]] = lineNo
			sc.Routers = append(sc.Routers, RouterDecl{Name: f[1], Line: lineNo})
		case "host":
			if len(f) < 3 || len(f) > 5 {
				return nil, fail("usage: host <name> <router> [capacity [delay]]")
			}
			if err := declareName(routers, hosts, sessions, f[1]); err != nil {
				return nil, fail("%v", err)
			}
			if _, ok := routers[f[2]]; !ok {
				return nil, fail("unknown router %q", f[2])
			}
			h := HostDecl{Name: f[1], Router: f[2], Capacity: rate.Mbps(100), Delay: time.Microsecond, Line: lineNo}
			if len(f) >= 4 {
				c, err := parseRate(f[3])
				if err != nil {
					return nil, fail("%v", err)
				}
				h.Capacity = c
			}
			if len(f) == 5 {
				d, err := parseDuration(f[4])
				if err != nil {
					return nil, fail("%v", err)
				}
				h.Delay = d
			}
			hosts[f[1]] = lineNo
			sc.Hosts = append(sc.Hosts, h)
		case "link":
			if len(f) != 5 {
				return nil, fail("usage: link <a> <b> <capacity> <delay>")
			}
			for _, n := range f[1:3] {
				if _, ok := routers[n]; !ok {
					return nil, fail("unknown router %q (hosts attach via the host line)", n)
				}
			}
			if f[1] == f[2] {
				return nil, fail("self loop on %q", f[1])
			}
			c, err := parseRate(f[3])
			if err != nil {
				return nil, fail("%v", err)
			}
			d, err := parseDuration(f[4])
			if err != nil {
				return nil, fail("%v", err)
			}
			sc.Links = append(sc.Links, LinkDecl{A: f[1], B: f[2], Capacity: c, Delay: d, Line: lineNo})
		case "session":
			if len(f) != 4 {
				return nil, fail("usage: session <name> <srcHost> <dstHost>")
			}
			if _, dup := sessions[f[1]]; dup {
				return nil, fail("duplicate session %q", f[1])
			}
			if _, clash := routers[f[1]]; clash {
				return nil, fail("session name %q clashes with a node", f[1])
			}
			if _, clash := hosts[f[1]]; clash {
				return nil, fail("session name %q clashes with a node", f[1])
			}
			if f[2] == f[3] {
				return nil, fail("session endpoints coincide (%q)", f[2])
			}
			sessions[f[1]] = lineNo
			sc.Sessions = append(sc.Sessions, SessionDecl{Name: f[1], Src: f[2], Dst: f[3], Line: lineNo})
		case "at":
			ev, err := parseEvent(f[1:], lineNo)
			if err != nil {
				return nil, fail("%v", err)
			}
			if rep != nil {
				rep.events = append(rep.events, ev)
				continue
			}
			if len(sc.Events) >= maxScriptEvents {
				return nil, fail("script exceeds %d events", maxScriptEvents)
			}
			sc.Events = append(sc.Events, ev)
		default:
			return nil, fail("unknown directive %q", f[0])
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if rep != nil {
		return nil, fmt.Errorf("scenario: line %d: repeat block never closed", rep.line)
	}

	if sc.Topo.Kind == 0 {
		sc.Topo.Kind = TopoHand
	}
	if sc.Topo.Kind != TopoHand && (len(sc.Routers) > 0 || len(sc.Hosts) > 0 || len(sc.Links) > 0) {
		return nil, fmt.Errorf("scenario: hand-built declarations cannot mix with a generated topology")
	}
	if sc.Topo.Kind == TopoHand {
		// Hand-built scripts can validate names at parse time.
		for _, s := range sc.Sessions {
			for _, h := range []string{s.Src, s.Dst} {
				if _, ok := hosts[h]; !ok {
					return nil, fmt.Errorf("scenario: line %d: unknown host %q", s.Line, h)
				}
			}
		}
		for _, ev := range sc.Events {
			switch ev.Op {
			case OpJoin, OpLeave, OpChange, OpExpectRate, OpExpectMigrated, OpExpectStranded, OpExpectReoptimized:
				continue
			}
			for _, n := range []string{ev.A, ev.B} {
				if _, okR := routers[n]; okR {
					continue
				}
				if _, okH := hosts[n]; okH {
					continue
				}
				return nil, fmt.Errorf("scenario: line %d: unknown node %q", ev.Line, n)
			}
		}
	}
	for _, ev := range sc.Events {
		switch ev.Op {
		case OpJoin, OpLeave, OpChange:
			if _, ok := sessions[ev.Session]; !ok {
				return nil, fmt.Errorf("scenario: line %d: unknown session %q", ev.Line, ev.Session)
			}
		case OpExpectRate:
			if _, ok := sessions[ev.Session]; ok {
				break
			}
			if _, ok := hosts[ev.Session]; ok {
				break
			}
			if sc.Topo.Kind == TopoHand {
				return nil, fmt.Errorf("scenario: line %d: expect rate names unknown session or host %q", ev.Line, ev.Session)
			}
			// Generated-topology host names resolve at build time.
		}
	}

	sort.SliceStable(sc.Events, func(i, j int) bool { return sc.Events[i].At < sc.Events[j].At })
	if err := sc.checkTimeline(); err != nil {
		return nil, err
	}
	return sc, nil
}

// Recheck re-sorts the timeline and re-runs the static consistency checks on
// a script whose event timestamps were edited after Parse — the churn-timing
// fuzzer's validity gate: a perturbation that double-fails a link or leaves
// before joining is rejected exactly like a hand-written script would be.
func (sc *Script) Recheck() error {
	sort.SliceStable(sc.Events, func(i, j int) bool { return sc.Events[i].At < sc.Events[j].At })
	return sc.checkTimeline()
}

// checkTimeline replays the sorted events statically: session churn must be
// consistent (no double join, no leave before join) and topology events must
// respect link state (no failing a failed link, no restoring an up link, no
// reconfiguring a failed link).
func (sc *Script) checkTimeline() error {
	joined := make(map[string]bool)
	downPairs := make(map[[2]string]bool)
	key := func(a, b string) [2]string {
		if a > b {
			a, b = b, a
		}
		return [2]string{a, b}
	}
	for _, ev := range sc.Events {
		switch ev.Op {
		case OpJoin:
			if joined[ev.Session] {
				return fmt.Errorf("scenario: line %d: join of already-joined session %q", ev.Line, ev.Session)
			}
			joined[ev.Session] = true
		case OpLeave:
			if !joined[ev.Session] {
				return fmt.Errorf("scenario: line %d: leave of session %q that is not joined", ev.Line, ev.Session)
			}
			joined[ev.Session] = false
		case OpChange:
			if !joined[ev.Session] {
				return fmt.Errorf("scenario: line %d: change of session %q that is not joined", ev.Line, ev.Session)
			}
		case OpFail:
			k := key(ev.A, ev.B)
			if downPairs[k] {
				return fmt.Errorf("scenario: line %d: link %s-%s is already failed", ev.Line, ev.A, ev.B)
			}
			downPairs[k] = true
		case OpRestore:
			k := key(ev.A, ev.B)
			if !downPairs[k] {
				return fmt.Errorf("scenario: line %d: restore of link %s-%s that is up", ev.Line, ev.A, ev.B)
			}
			downPairs[k] = false
		case OpSetCapacity:
			if downPairs[key(ev.A, ev.B)] {
				return fmt.Errorf("scenario: line %d: set-capacity on failed link %s-%s", ev.Line, ev.A, ev.B)
			}
		}
	}
	return nil
}

// expand lays the block's events out n times: timestamps inside the block
// are relative to each iteration's start, and iterations are spaced by the
// block's largest timestamp (its span). A block `repeat 3 { at 5ms fail a b;
// at 10ms restore a b }` therefore fires at 5,10, 15,20, 25,30 ms — the
// shape of a long churn soak. The static timeline checker then replays the
// expanded events, so a block whose iterations would double-fail a link is
// rejected like any hand-written timeline.
func (r *repeatBlock) expand() ([]Event, error) {
	if len(r.events) == 0 {
		return nil, fmt.Errorf("repeat block is empty")
	}
	// Division, not multiplication: a huge count must not overflow the
	// guard itself (this parser sees untrusted input).
	if r.n > maxScriptEvents/len(r.events) {
		return nil, fmt.Errorf("repeat of %d × %d events expands past %d", r.n, len(r.events), maxScriptEvents)
	}
	span := time.Duration(0)
	for _, ev := range r.events {
		if ev.At > span {
			span = ev.At
		}
	}
	if span <= 0 {
		return nil, fmt.Errorf("repeat block needs a positive time span (its largest `at` offset)")
	}
	if span > time.Duration(math.MaxInt64)/time.Duration(r.n) {
		return nil, fmt.Errorf("repeat span %v overflows over %d iterations", span, r.n)
	}
	out := make([]Event, 0, r.n*len(r.events))
	for i := 0; i < r.n; i++ {
		off := time.Duration(i) * span
		for _, ev := range r.events {
			ev.At += off
			out = append(out, ev)
		}
	}
	return out, nil
}

func declareName(routers, hosts, sessions map[string]int, name string) error {
	if _, dup := routers[name]; dup {
		return fmt.Errorf("duplicate node %q", name)
	}
	if _, dup := hosts[name]; dup {
		return fmt.Errorf("duplicate node %q", name)
	}
	if _, clash := sessions[name]; clash {
		return fmt.Errorf("node name %q clashes with a session", name)
	}
	return nil
}

func parseTopology(sc *Script, f []string) error {
	if len(f) < 1 {
		return fmt.Errorf("usage: topology transit-stub <size> <scenario> [seed=N] [hosts=N]")
	}
	switch f[0] {
	case "transit-stub":
		if len(f) < 3 {
			return fmt.Errorf("usage: topology transit-stub <small|medium|big> <lan|wan> [seed=N] [hosts=N]")
		}
		spec := TopoSpec{Kind: TopoTransitStub, Seed: 1}
		switch f[1] {
		case "small":
			spec.Size = topology.Small
		case "medium":
			spec.Size = topology.Medium
		case "big":
			spec.Size = topology.Big
		default:
			return fmt.Errorf("unknown size %q (small, medium, big)", f[1])
		}
		switch f[2] {
		case "lan":
			spec.Scen = topology.LAN
		case "wan":
			spec.Scen = topology.WAN
		default:
			return fmt.Errorf("unknown scenario %q (lan, wan)", f[2])
		}
		for _, opt := range f[3:] {
			k, v, ok := strings.Cut(opt, "=")
			if !ok {
				return fmt.Errorf("malformed option %q (want key=value)", opt)
			}
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return fmt.Errorf("option %s: %v", k, err)
			}
			switch k {
			case "seed":
				spec.Seed = n
			case "hosts":
				if n < 0 || n > maxScriptHosts {
					return fmt.Errorf("hosts=%d out of range [0, %d]", n, maxScriptHosts)
				}
				spec.Hosts = int(n)
			default:
				return fmt.Errorf("unknown option %q", k)
			}
		}
		sc.Topo = spec
		return nil
	case "internet":
		if len(f) < 2 {
			return fmt.Errorf("usage: topology internet <paper|metro|global> [seed=N] [hosts=N]")
		}
		spec := TopoSpec{Kind: TopoInternet, Seed: 1}
		switch f[1] {
		case "paper":
			spec.Inet = topology.InternetPaper
		case "metro":
			spec.Inet = topology.InternetMetro
		case "global":
			spec.Inet = topology.InternetGlobal
		default:
			return fmt.Errorf("unknown internet rung %q (paper, metro, global)", f[1])
		}
		for _, opt := range f[2:] {
			k, v, ok := strings.Cut(opt, "=")
			if !ok {
				return fmt.Errorf("malformed option %q (want key=value)", opt)
			}
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return fmt.Errorf("option %s: %v", k, err)
			}
			switch k {
			case "seed":
				spec.Seed = n
			case "hosts":
				if n < 0 || n > maxScriptHosts {
					return fmt.Errorf("hosts=%d out of range [0, %d]", n, maxScriptHosts)
				}
				spec.Hosts = int(n)
			default:
				return fmt.Errorf("unknown option %q", k)
			}
		}
		sc.Topo = spec
		return nil
	default:
		return fmt.Errorf("unknown topology kind %q (transit-stub, internet, or hand-built declarations)", f[0])
	}
}

// parsePolicy reads a `policy <pinned|reoptimize> [stretch=F] [min-gain=N]`
// directive.
func parsePolicy(sc *Script, f []string) error {
	if len(f) < 1 {
		return fmt.Errorf("usage: policy <pinned|reoptimize> [stretch=F] [min-gain=N]")
	}
	kind, ok := control.ParsePolicy(f[0])
	if !ok {
		return fmt.Errorf("unknown policy %q (pinned, reoptimize)", f[0])
	}
	cfg := control.Policy{Kind: kind}
	for _, opt := range f[1:] {
		k, v, ok := strings.Cut(opt, "=")
		if !ok {
			return fmt.Errorf("malformed option %q (want key=value)", opt)
		}
		switch k {
		case "stretch":
			x, err := strconv.ParseFloat(v, 64)
			if err != nil || x < 1 {
				return fmt.Errorf("option %s=%q must be a number ≥ 1", k, v)
			}
			cfg.Stretch = x
		case "min-gain":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return fmt.Errorf("option min-gain=%q must be a positive integer", v)
			}
			cfg.MinGain = n
		default:
			return fmt.Errorf("unknown option %q", k)
		}
	}
	if kind == control.Pinned && (cfg.Stretch != 0 || cfg.MinGain != 0) {
		return fmt.Errorf("policy pinned takes no options")
	}
	sc.Policy = cfg
	return nil
}

func parseEvent(f []string, line int) (Event, error) {
	if len(f) < 2 {
		return Event{}, fmt.Errorf("usage: at <time> <op> ...")
	}
	at, err := parseDuration(f[0])
	if err != nil {
		return Event{}, err
	}
	ev := Event{At: at, Line: line}
	op, args := f[1], f[2:]
	switch op {
	case "join":
		ev.Op = OpJoin
		ev.Demand = rate.Inf
		if len(args) < 1 || len(args) > 2 {
			return Event{}, fmt.Errorf("usage: at <time> join <session> [demand=<rate>]")
		}
		ev.Session = args[0]
		if len(args) == 2 {
			d, err := parseDemandOpt(args[1])
			if err != nil {
				return Event{}, err
			}
			ev.Demand = d
		}
	case "change":
		ev.Op = OpChange
		if len(args) != 2 {
			return Event{}, fmt.Errorf("usage: at <time> change <session> demand=<rate>")
		}
		ev.Session = args[0]
		d, err := parseDemandOpt(args[1])
		if err != nil {
			return Event{}, err
		}
		ev.Demand = d
	case "leave":
		ev.Op = OpLeave
		if len(args) != 1 {
			return Event{}, fmt.Errorf("usage: at <time> leave <session>")
		}
		ev.Session = args[0]
	case "fail", "restore":
		if op == "fail" {
			ev.Op = OpFail
		} else {
			ev.Op = OpRestore
		}
		if len(args) != 2 {
			return Event{}, fmt.Errorf("usage: at <time> %s <nodeA> <nodeB>", op)
		}
		ev.A, ev.B = args[0], args[1]
		if ev.A == ev.B {
			return Event{}, fmt.Errorf("%s endpoints coincide (%q)", op, ev.A)
		}
	case "expect":
		switch {
		case len(args) == 3 && args[0] == "rate":
			ev.Op = OpExpectRate
			ev.Session = args[1]
			r, err := parseExpectedRate(args[2])
			if err != nil {
				return Event{}, err
			}
			ev.Demand = r
		case len(args) == 2 && (args[0] == "migrated" || args[0] == "stranded" || args[0] == "reoptimized"):
			switch args[0] {
			case "migrated":
				ev.Op = OpExpectMigrated
			case "stranded":
				ev.Op = OpExpectStranded
			case "reoptimized":
				ev.Op = OpExpectReoptimized
			}
			n, err := strconv.Atoi(args[1])
			if err != nil || n < 0 {
				return Event{}, fmt.Errorf("expect %s count %q must be a non-negative integer", args[0], args[1])
			}
			ev.Count = n
		default:
			return Event{}, fmt.Errorf("usage: at <time> expect rate <session|host> <rate> | expect migrated <n> | expect stranded <n> | expect reoptimized <n>")
		}
	case "set-capacity":
		ev.Op = OpSetCapacity
		if len(args) != 3 {
			return Event{}, fmt.Errorf("usage: at <time> set-capacity <nodeA> <nodeB> <rate>")
		}
		ev.A, ev.B = args[0], args[1]
		if ev.A == ev.B {
			return Event{}, fmt.Errorf("set-capacity endpoints coincide (%q)", ev.A)
		}
		c, err := parseRate(args[2])
		if err != nil {
			return Event{}, err
		}
		if c.IsInf() {
			return Event{}, fmt.Errorf("set-capacity requires a finite rate")
		}
		ev.Capacity = c
	default:
		return Event{}, fmt.Errorf("unknown event %q", op)
	}
	if at < 0 {
		return Event{}, fmt.Errorf("negative timestamp %v", at)
	}
	return ev, nil
}

func parseDemandOpt(s string) (rate.Rate, error) {
	k, v, ok := strings.Cut(s, "=")
	if !ok || k != "demand" {
		return rate.Zero, fmt.Errorf("malformed option %q (want demand=<rate>)", s)
	}
	return parseRate(v)
}

// parseExpectedRate is parseRate for expect-rate assertions: zero is legal
// (asserting a departed or stranded population carries nothing), infinity is
// not (no granted rate is ever unlimited).
func parseExpectedRate(s string) (rate.Rate, error) {
	for _, zero := range []string{"0", "0bps", "0kbps", "0mbps", "0gbps"} {
		if strings.ToLower(s) == zero {
			return rate.Zero, nil
		}
	}
	r, err := parseRate(s)
	if err != nil {
		return rate.Zero, err
	}
	if r.IsInf() {
		return rate.Zero, fmt.Errorf("expect rate requires a finite rate")
	}
	return r, nil
}

// parseRate accepts "unlimited"/"inf" or an integer with a bps/kbps/mbps/gbps
// suffix (a bare integer is bits per second).
func parseRate(s string) (rate.Rate, error) {
	low := strings.ToLower(s)
	if low == "unlimited" || low == "inf" {
		return rate.Inf, nil
	}
	mult := int64(1)
	num := low
	for _, u := range []struct {
		suffix string
		mult   int64
	}{{"gbps", 1e9}, {"mbps", 1e6}, {"kbps", 1e3}, {"bps", 1}} {
		if strings.HasSuffix(low, u.suffix) {
			mult = u.mult
			num = strings.TrimSuffix(low, u.suffix)
			break
		}
	}
	v, err := strconv.ParseInt(num, 10, 64)
	if err != nil {
		return rate.Zero, fmt.Errorf("malformed rate %q: %v", s, err)
	}
	if v <= 0 {
		return rate.Zero, fmt.Errorf("non-positive rate %q", s)
	}
	if v > (1<<62)/mult {
		return rate.Zero, fmt.Errorf("rate %q overflows", s)
	}
	return rate.FromInt64(v * mult), nil
}

// parseDuration wraps time.ParseDuration, rejecting negatives and bare
// numbers.
func parseDuration(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("malformed duration %q", s)
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %q", s)
	}
	return d, nil
}
