package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"bneck"
)

// simNet is the surface a simulated workload needs from the system under
// test. It has two implementations fed the same plan: publicNet drives the
// exported bneck API (every end-to-end number comes from it), tracedNet
// drives internal/network directly so that packets can be recorded and
// layer calls wrapped in spans. Sessions and router links are addressed by
// their index in creation order, which is the same in both.
type simNet interface {
	addSession(src, dst int) error
	join(sess int, at time.Duration, demand bneck.Rate)
	leave(sess int, at time.Duration)
	change(sess int, at time.Duration, demand bneck.Rate)
	// rate reports a session's granted rate; ok is false once it has left.
	rate(sess int) (r bneck.Rate, ok bool)

	routerLinks() int
	fail(link int, at time.Duration)
	restore(link int, at time.Duration)
	shrink(link int, at time.Duration, by int)

	now() time.Duration
	// run advances to quiescence and returns its virtual time and the
	// cumulative count of packets that crossed a link.
	run() (quiescence time.Duration, packets uint64)
	// rates is the rate table of the last run, ordered by session ID.
	rates() []idRate
	validate() error
}

type idRate struct {
	id   int64
	rate bneck.Rate
}

// repResult is what one repetition — one child process — reports.
type repResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// SetupS runs from process start to the moment the first epoch is about
	// to be scheduled.
	SetupS     float64   `json:"setup_s"`
	RunS       float64   `json:"run_s"`   // wall time inside the convergence calls
	Packets    uint64    `json:"packets"` // packets that crossed a link
	EpochMs    []float64 `json:"epoch_ms"`
	ValidateMs []float64 `json:"validate_ms"`
	// VirtUs is, per epoch, the virtual time from the epoch's start to
	// quiescence (simulated workloads only).
	VirtUs    []float64 `json:"virt_us,omitempty"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Failures  []string  `json:"failures,omitempty"`
	// Digest fingerprints the simulated outcome (empty for live_churn,
	// whose packet counts depend on goroutine timing).
	Digest string `json:"digest,omitempty"`
	// Layer holds the per-layer metrics of a traced repetition.
	Layer map[string]float64 `json:"layer,omitempty"`
}

// check counts one correctness check and records why it failed.
func (r *repResult) check(ok bool, format string, args ...any) {
	r.Attempted++
	if ok {
		return
	}
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func demandRate(mbps int64) bneck.Rate {
	if mbps == 0 {
		return bneck.Unlimited
	}
	return bneck.Mbps(mbps)
}

var chainCapacity = bneck.Mbps(100)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runSim executes a simulated plan: set-up, then per epoch schedule → run
// to quiescence → validate against the oracle. after, when set, is called
// at the end of every epoch (the traced run feeds its layer probes there).
func runSim(p *plan, build func() (simNet, error), tr *tracer, after func(epoch int)) (*repResult, error) {
	res := &repResult{Workload: p.workload, Seed: p.seed}

	tr.begin("setup")
	net, err := build()
	if err != nil {
		return nil, err
	}
	for _, s := range p.sessions {
		if err := net.addSession(s[0], s[1]); err != nil {
			return nil, fmt.Errorf("session %v: %w", s, err)
		}
	}
	picker := newLinkPicker(net.routerLinks())
	tr.end()
	res.SetupS = time.Since(processStart).Seconds()

	demand := make([]int64, len(p.sessions)) // current demand in Mbps, by session
	active := make([]bool, len(p.sessions))
	digest := sha256.New()
	var lastPackets uint64
	for e, ep := range p.epochs {
		tr.setEpoch(e)
		tr.begin("schedule")
		start := time.Duration(0)
		if e > 0 {
			start = net.now() + epochGap
		}
		if ep.fail {
			if l := picker.pickUp(ep.failRaw); l >= 0 {
				picker.fail(l)
				net.fail(l, start)
			}
		}
		if ep.restore {
			if l := picker.restoreOldest(); l >= 0 {
				net.restore(l, start)
			}
		}
		if ep.shrinkBy > 0 {
			if l := picker.pickUp(ep.shrRaw); l >= 0 {
				net.shrink(l, start, ep.shrinkBy)
			}
		}
		for _, o := range ep.ops {
			switch o.kind {
			case opJoin:
				net.join(o.sess, start+o.at, demandRate(o.mbps))
				demand[o.sess], active[o.sess] = o.mbps, true
			case opChange:
				net.change(o.sess, start+o.at, demandRate(o.mbps))
				demand[o.sess] = o.mbps
			case opLeave:
				net.leave(o.sess, start+o.at)
				active[o.sess] = false
			}
		}
		tr.end()

		tr.begin("run")
		t0 := time.Now()
		q, packets := net.run()
		wall := time.Since(t0)
		tr.end()
		res.RunS += wall.Seconds()
		res.EpochMs = append(res.EpochMs, ms(wall))
		res.Packets = packets
		res.VirtUs = append(res.VirtUs, float64(q-start)/float64(time.Microsecond))

		tr.begin("validate")
		t0 = time.Now()
		verr := net.validate()
		res.ValidateMs = append(res.ValidateMs, ms(time.Since(t0)))
		tr.end()
		res.check(verr == nil, "epoch %d: %v", e, verr)

		if p.topo == topoChains {
			res.check(chainRatesRight(net, demand, active), "epoch %d: a chain session's rate is not min(demand, link capacity)", e)
		}
		fmt.Fprintf(digest, "epoch %d quiescence %d packets %d\n", e, q, packets-lastPackets)
		for _, ir := range net.rates() {
			fmt.Fprintf(digest, "%d=%s\n", ir.id, ir.rate.Key())
		}
		lastPackets = packets
		if after != nil {
			after(e)
		}
	}
	if p.topo == topoChains {
		// Chains are identical but for their delays, which move no packet
		// count: every session must have cost the same number of packets.
		res.check(res.Packets > 0 && res.Packets%uint64(p.chains) == 0,
			"%d packets is not a multiple of %d chains", res.Packets, p.chains)
	}
	res.Digest = fmt.Sprintf("%x", digest.Sum(nil)[:8])
	return res, nil
}

// chainRatesRight is the analytic check of chains_bare: a session alone on
// its chain is granted min(demand, 100 Mbps).
func chainRatesRight(net simNet, demand []int64, active []bool) bool {
	for i := range demand {
		r, ok := net.rate(i)
		if ok != active[i] {
			return false
		}
		if !ok {
			continue
		}
		want := chainCapacity
		if d := demandRate(demand[i]); d.Less(want) {
			want = d
		}
		if !r.Equal(want) {
			return false
		}
	}
	return true
}
