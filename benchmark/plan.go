package main

import (
	"fmt"
	"math/rand"
	"time"
)

// The four workloads. Each is a pure function of (-seed, -scale): the
// generator below produces a plan — which sessions exist, what every epoch
// schedules — and the program under test only ever sees that plan.
const (
	wlChains   = "chains_bare"
	wlChurn    = "churn_wan"
	wlInternet = "internet_burst"
	wlLive     = "live_churn"
)

var workloadNames = []string{wlChains, wlChurn, wlInternet, wlLive}

// workloadWhy is the one sentence per workload that BENCHMARK.json and the
// README repeat.
var workloadWhy = map[string]string{
	wlChains:   "one session per link on disjoint chains: the per-packet floor (queue, delivery, task lookup), largest event queue, no shared tables",
	wlChurn:    "Exp4-shaped churn with failures and capacity cuts on a WAN transit-stub: dense tables, wide rates, rerouting, an oracle solve every epoch",
	wlInternet: "join/change/leave bursts on the 10k-router internet topology: set-up (path resolution) dominates, largest working set, sparse tables",
	wlLive:     "the same core under the goroutine transport in a closed loop: mailbox, stripe-lock and scheduler costs that no simulated workload pays",
}

// scale sizes every workload. full is what BENCHMARK.json measures; tiny
// exists for the smoke test.
type scale struct {
	name string

	chains, chainRouters, chainChanges int

	churnSize                         int // transit-stub size: 1 small, 2 medium, 3 big
	churnBase, churnEpochs, churnRate int

	inetSize, inetSessions, inetChanges int

	liveBase, liveEpochs, liveRate int
}

var scales = map[string]scale{
	"full": {
		name:   "full",
		chains: 1500, chainRouters: 32, chainChanges: 3,
		churnSize: 2, churnBase: 600, churnEpochs: 30, churnRate: 30,
		inetSize: 3, inetSessions: 1000, inetChanges: 3,
		liveBase: 384, liveEpochs: 30, liveRate: 24,
	},
	"tiny": {
		name:   "tiny",
		chains: 20, chainRouters: 4, chainChanges: 2,
		churnSize: 1, churnBase: 40, churnEpochs: 4, churnRate: 5,
		inetSize: 1, inetSessions: 30, inetChanges: 2,
		liveBase: 24, liveEpochs: 4, liveRate: 4,
	},
}

type topoKind int

const (
	topoChains topoKind = iota
	topoTransitStub
	topoInternet
)

type opKind uint8

const (
	opJoin opKind = iota
	opLeave
	opChange
)

// op is one session API call of an epoch. at is the offset from the epoch's
// start (the live workload ignores it: calls are issued as fast as the
// client goroutines go). mbps 0 means an unlimited demand.
type op struct {
	kind opKind
	sess int
	at   time.Duration
	mbps int64
}

// epochPlan is everything one epoch schedules. Link events carry a raw
// random number; linkPicker maps it onto a router link that is up at that
// point of the plan, so the choice needs no knowledge of the topology.
type epochPlan struct {
	ops      []op
	fail     bool
	failRaw  int64
	restore  bool // bring the oldest failed link back
	shrinkBy int  // 0: no capacity change; else divide a link's capacity by it
	shrRaw   int64
}

type plan struct {
	workload string
	seed     int64
	// topoSeed generates the topology and places the hosts. It is a fixed
	// property of the workload, not drawn from -seed: two random transit-stub
	// networks differ by more than any change this benchmark is meant to
	// resolve, and a metric that moves 15 % with the seed cannot hold a 10 %
	// bound. -seed still decides who talks to whom, every demand, every call
	// time, and every link that fails.
	topoSeed int64
	topo     topoKind
	size     int  // bneck.Size of a generated topology
	wan      bool // WAN propagation model (transit-stub only)
	live     bool

	chains, chainRouters int

	hosts    int
	sessions [][2]int // host indices
	epochs   []epochPlan
}

// epochWindow is the interval an epoch's calls are spread over; epochGap
// separates one epoch's quiescence from the next epoch's start.
const (
	epochWindow = time.Millisecond
	epochGap    = 5 * time.Millisecond
)

func newPlan(workload string, seed int64, sc scale) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	switch workload {
	case wlChains:
		return chainsPlan(seed, sc, rng), nil
	case wlChurn:
		p := churnPlan(sc.churnBase, sc.churnEpochs, sc.churnRate, true, rng)
		p.workload, p.seed, p.topoSeed, p.topo, p.size, p.wan = wlChurn, seed, topologySeed, topoTransitStub, sc.churnSize, true
		return p, nil
	case wlInternet:
		return internetPlan(seed, sc, rng), nil
	case wlLive:
		p := churnPlan(sc.liveBase, sc.liveEpochs, sc.liveRate, false, rng)
		p.workload, p.seed, p.topoSeed, p.topo, p.size, p.live = wlLive, seed, topologySeed, topoTransitStub, 1, true
		return p, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
}

// topologySeed is the topoSeed of every generated topology.
const topologySeed = 2011

// pairSessions makes n sessions over 2n hosts. Session i starts at host i —
// one source host per session, as the paper assumes, created in host order
// as a user of the API would — and ends at a host drawn from the seed.
func pairSessions(n int, rng *rand.Rand) [][2]int {
	out := make([][2]int, n)
	for i := range out {
		dst := rng.Intn(2*n - 1)
		if dst >= i {
			dst++ // any host but the source
		}
		out[i] = [2]int{i, dst}
	}
	return out
}

func jitter(rng *rand.Rand) time.Duration { return time.Duration(rng.Int63n(int64(epochWindow))) }

// mixed draws a finite demand of lo..hi Mbps with probability pFinite and
// an unlimited one otherwise.
func mixed(rng *rand.Rand, pFinite float64, lo, hi int64) int64 {
	if rng.Float64() >= pFinite {
		return 0
	}
	return lo + rng.Int63n(hi-lo+1)
}

// chainsPlan: every chain carries one session. Epoch 0 joins all of them
// unlimited, the middle epochs change every demand to a finite value, the
// last epoch removes everything.
func chainsPlan(seed int64, sc scale, rng *rand.Rand) *plan {
	p := &plan{workload: wlChains, seed: seed, topo: topoChains,
		chains: sc.chains, chainRouters: sc.chainRouters,
		hosts: 2 * sc.chains}
	for c := 0; c < sc.chains; c++ {
		p.sessions = append(p.sessions, [2]int{2 * c, 2*c + 1}) // the two ends of chain c
	}
	all := func(kind opKind, demand func() int64) epochPlan {
		ep := epochPlan{ops: make([]op, sc.chains)}
		for i := range ep.ops {
			ep.ops[i] = op{kind: kind, sess: i, at: jitter(rng), mbps: demand()}
		}
		return ep
	}
	p.epochs = append(p.epochs, all(opJoin, func() int64 { return 0 }))
	for k := 0; k < sc.chainChanges; k++ {
		p.epochs = append(p.epochs, all(opChange, func() int64 { return 1 + rng.Int63n(50) }))
	}
	p.epochs = append(p.epochs, all(opLeave, func() int64 { return 0 }))
	return p
}

// chainProp is the propagation delay of link l of chain c: 1–50 µs, a hash
// of the seed so both the public and the traced set-up build the same
// network without sharing a random stream.
func (p *plan) chainProp(c, l int) time.Duration {
	x := uint64(p.seed)*0x9e3779b97f4a7c15 + uint64(c)*0xbf58476d1ce4e5b9 + uint64(l)*0x94d049bb133111eb
	x ^= x >> 31
	x *= 0xd6e8feb86659fd93
	x ^= x >> 29
	return time.Duration(1+x%50) * time.Microsecond
}

// internetPlan: epoch 0 joins every session (a quarter with finite
// demands), the middle epochs change every demand, the last epoch removes
// half of the sessions.
func internetPlan(seed int64, sc scale, rng *rand.Rand) *plan {
	n := sc.inetSessions
	p := &plan{workload: wlInternet, seed: seed, topoSeed: topologySeed, topo: topoInternet, size: sc.inetSize,
		hosts: 2 * n, sessions: pairSessions(n, rng)}
	join := epochPlan{ops: make([]op, n)}
	for i := range join.ops {
		join.ops[i] = op{kind: opJoin, sess: i, at: jitter(rng), mbps: mixed(rng, 0.25, 1, 100)}
	}
	p.epochs = append(p.epochs, join)
	for k := 0; k < sc.inetChanges; k++ {
		ch := epochPlan{ops: make([]op, n)}
		for i := range ch.ops {
			ch.ops[i] = op{kind: opChange, sess: i, at: jitter(rng), mbps: mixed(rng, 0.5, 1, 100)}
		}
		p.epochs = append(p.epochs, ch)
	}
	leave := epochPlan{}
	for _, i := range rng.Perm(n)[:n/2] {
		leave.ops = append(leave.ops, op{kind: opLeave, sess: i, at: jitter(rng)})
	}
	p.epochs = append(p.epochs, leave)
	return p
}

// churnPlan is the Exp4 shape: base sessions join, then every epoch joins
// rate fresh sessions, removes rate active ones, changes the demand of
// another rate, fails a router link, restores the oldest failed link on
// even epochs and (shrink) cuts one link's capacity every third epoch. The
// three session sets of an epoch are disjoint, so the result does not
// depend on the order the calls land in.
func churnPlan(base, epochs, rate int, shrink bool, rng *rand.Rand) *plan {
	total := base + epochs*rate
	p := &plan{hosts: 2 * total, sessions: pairSessions(total, rng)}
	join := epochPlan{ops: make([]op, base)}
	active := make([]int, base)
	for i := range join.ops {
		join.ops[i] = op{kind: opJoin, sess: i, at: jitter(rng), mbps: mixed(rng, 0.3, 1, 100)}
		active[i] = i
	}
	p.epochs = append(p.epochs, join)
	// Which links fail and shrink is part of the network, like its topology
	// (see plan.topoSeed): a failed transit link reroutes a hundred sessions, a
	// failed stub link none, so drawing the schedule from -seed would make
	// every epoch metric mostly a function of the seed.
	events := rand.New(rand.NewSource(topologySeed))
	for e := 1; e <= epochs; e++ {
		ep := epochPlan{fail: true, failRaw: events.Int63(), restore: e%2 == 0}
		if shrink && e%3 == 0 {
			ep.shrinkBy, ep.shrRaw = 2+events.Intn(2), events.Int63()
		}
		// Leavers then changers come off the front of a shuffled active set.
		rng.Shuffle(len(active), func(i, j int) { active[i], active[j] = active[j], active[i] })
		for _, s := range active[:rate] {
			ep.ops = append(ep.ops, op{kind: opLeave, sess: s, at: jitter(rng)})
		}
		active = active[rate:]
		for _, s := range active[:rate] {
			ep.ops = append(ep.ops, op{kind: opChange, sess: s, at: jitter(rng), mbps: mixed(rng, 0.3, 1, 100)})
		}
		first := base + (e-1)*rate
		for s := first; s < first+rate; s++ {
			ep.ops = append(ep.ops, op{kind: opJoin, sess: s, at: jitter(rng), mbps: mixed(rng, 0.3, 1, 100)})
			active = append(active, s)
		}
		// The live workload issues the calls in this order from its client
		// goroutines; the simulated ones schedule them by their offsets.
		rng.Shuffle(len(ep.ops), func(i, j int) { ep.ops[i], ep.ops[j] = ep.ops[j], ep.ops[i] })
		p.epochs = append(p.epochs, ep)
	}
	return p
}

// checks is how many correctness checks one repetition of the plan makes;
// the driver charges them all as failed when a repetition never reports.
func (p *plan) checks() int {
	n := len(p.epochs) // one oracle validation per epoch
	if p.topo == topoChains {
		n += len(p.epochs) + 1 // analytic rates per epoch, packet count once
	}
	if p.live {
		n += len(p.epochs) // every epoch must have sent packets
	}
	return n
}

// linkPicker maps the plan's raw random numbers onto router links (by their
// index in the network's router-link list) that the plan has not failed.
type linkPicker struct {
	n      int
	isDown map[int]bool
	down   []int // failed links, oldest first
}

func newLinkPicker(routerLinks int) *linkPicker {
	return &linkPicker{n: routerLinks, isDown: make(map[int]bool)}
}

// pickUp returns an up link, or -1 when every link is down.
func (lp *linkPicker) pickUp(raw int64) int {
	if lp.n == 0 || len(lp.down) >= lp.n {
		return -1
	}
	i := int(raw % int64(lp.n))
	for lp.isDown[i] {
		i = (i + 1) % lp.n
	}
	return i
}

func (lp *linkPicker) fail(i int) {
	lp.isDown[i] = true
	lp.down = append(lp.down, i)
}

// restoreOldest returns the link that has been down longest, or -1.
func (lp *linkPicker) restoreOldest() int {
	if len(lp.down) == 0 {
		return -1
	}
	i := lp.down[0]
	lp.down = lp.down[1:]
	delete(lp.isDown, i)
	return i
}
