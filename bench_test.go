// Benchmarks regenerating every figure of the paper's evaluation (Section
// IV) at laptop scale, plus micro-benchmarks of the substrates. Each figure
// benchmark runs the corresponding experiment and reports the quantities the
// paper plots as custom metrics (virtual milliseconds to quiescence, packets
// per session, error percentiles), so `go test -bench=.` reproduces the
// shapes of Figures 5–8 end to end. cmd/experiments prints the full tables.
package bneck_test

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"bneck/internal/exp"
	"bneck/internal/network"
	"bneck/internal/rate"
	"bneck/internal/sim"
	"bneck/internal/topology"
	"bneck/internal/trace"
)

// ---------------------------------------------------------------------------
// Figure 5 (Experiment 1): time to quiescence and packet counts as session
// counts grow, on {Small, Medium} × {LAN, WAN}.
// ---------------------------------------------------------------------------

func benchFigure5(b *testing.B, size topology.Params, scen topology.Scenario, sessions int) {
	b.Helper()
	cfg := exp.DefaultExp1()
	cfg.Sizes = []topology.Params{size}
	cfg.Scenarios = []topology.Scenario{scen}
	cfg.SessionCounts = []int{sessions}
	cfg.Validate = false // validation cost is not part of the protocol
	var lastQ time.Duration
	var lastP float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		rows, err := exp.RunExperiment1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		lastQ = rows[0].Quiescence
		lastP = rows[0].PacketsPerSession
	}
	b.ReportMetric(float64(lastQ.Microseconds())/1e3, "virt_ms_to_quiescence")
	b.ReportMetric(lastP, "pkts/session")
}

func BenchmarkFigure5TimeToQuiescence(b *testing.B) {
	for _, c := range []struct {
		size     topology.Params
		scen     topology.Scenario
		sessions int
	}{
		{topology.Small, topology.LAN, 100},
		{topology.Small, topology.LAN, 1000},
		{topology.Small, topology.WAN, 100},
		{topology.Small, topology.WAN, 1000},
		{topology.Medium, topology.LAN, 1000},
		{topology.Medium, topology.WAN, 1000},
	} {
		b.Run(c.size.Name+"/"+c.scen.String()+"/"+itoa(c.sessions), func(b *testing.B) {
			benchFigure5(b, c.size, c.scen, c.sessions)
		})
	}
}

// BenchmarkFigure5Packets isolates the right-hand plot: packet growth with
// session count on one topology.
func BenchmarkFigure5Packets(b *testing.B) {
	for _, n := range []int{10, 100, 1000, 4000} {
		b.Run("Small/LAN/"+itoa(n), func(b *testing.B) {
			benchFigure5(b, topology.Small, topology.LAN, n)
		})
	}
}

// ---------------------------------------------------------------------------
// Figure 6 (Experiment 2): five phases of dynamics; the metric is the
// re-convergence (quiescence) time of each phase.
// ---------------------------------------------------------------------------

func BenchmarkFigure6Dynamics(b *testing.B) {
	cfg := exp.DefaultExp2()
	cfg.Topology = topology.Small
	cfg.Base = 1000
	cfg.Dyn = 200
	cfg.Validate = false
	var phases []exp.Exp2Phase
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := exp.RunExperiment2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		phases = res.Phases
	}
	for i, p := range phases {
		b.ReportMetric(float64(p.Took.Microseconds())/1e3, "virt_ms_phase"+itoa(i+1))
	}
}

// ---------------------------------------------------------------------------
// Figures 7 and 8 (Experiment 3): B-Neck vs BFYZ error distributions and
// packet counts over time.
// ---------------------------------------------------------------------------

func benchFigure7And8(b *testing.B, protocols []string) *exp.Exp3Result {
	b.Helper()
	cfg := exp.DefaultExp3()
	cfg.Topology = topology.Small
	cfg.Sessions = 1000
	cfg.Leavers = 100
	cfg.Horizon = 100 * time.Millisecond
	cfg.Protocols = protocols
	var res *exp.Exp3Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		var err error
		res, err = exp.RunExperiment3(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

func BenchmarkFigure7ErrorAtSources(b *testing.B) {
	res := benchFigure7And8(b, []string{"bneck", "bfyz"})
	for _, s := range res.Series {
		// The paper's headline from Figure 7 left: B-Neck's transient errors
		// are ≤ 0 (conservative), BFYZ's p90 goes positive (overshoot). We
		// report the worst p90 and the convergence time.
		worstP90 := 0.0
		for _, p := range s.SourceErr.Points {
			if p.Summary.P90 > worstP90 {
				worstP90 = p.Summary.P90
			}
		}
		b.ReportMetric(worstP90, s.Protocol+"_worst_p90_pct")
		b.ReportMetric(float64(s.ConvergedAt.Microseconds())/1e3, s.Protocol+"_virt_ms_converge")
	}
}

func BenchmarkFigure7ErrorAtLinks(b *testing.B) {
	res := benchFigure7And8(b, []string{"bneck", "bfyz"})
	for _, s := range res.Series {
		worstP90 := 0.0
		for _, p := range s.LinkErr.Points {
			if p.Summary.P90 > worstP90 {
				worstP90 = p.Summary.P90
			}
		}
		b.ReportMetric(worstP90, s.Protocol+"_worst_link_p90_pct")
	}
}

func BenchmarkFigure8PacketsOverTime(b *testing.B) {
	const horizon = 100 * time.Millisecond // keep in sync with benchFigure7And8
	res := benchFigure7And8(b, []string{"bneck", "bfyz"})
	for _, s := range res.Series {
		// Figure 8's contrast: traffic in the last quarter of the horizon is
		// zero for B-Neck (it quiesced long before) and steady for BFYZ.
		// B-Neck's bin list simply ends at quiescence, so absent bins count
		// as silence.
		tail := uint64(0)
		for _, bin := range s.Bins {
			if bin.Start >= horizon*3/4 {
				tail += bin.Total
			}
		}
		b.ReportMetric(float64(s.Packets), s.Protocol+"_pkts_total")
		b.ReportMetric(float64(tail), s.Protocol+"_pkts_tail")
	}
}

// BenchmarkExp3SmallBaselines covers the paper's observation that CG and RCP
// do not converge exactly in bounded time even at small scale.
func BenchmarkExp3SmallBaselines(b *testing.B) {
	cfg := exp.DefaultExp3()
	cfg.Topology = topology.Small
	cfg.Sessions = 300
	cfg.Leavers = 0
	cfg.Horizon = 100 * time.Millisecond
	cfg.Protocols = []string{"cg", "rcp"}
	var res *exp.Exp3Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		var err error
		res, err = exp.RunExperiment3(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range res.Series {
		last := s.SourceErr.Points[len(s.SourceErr.Points)-1]
		b.ReportMetric(last.Summary.Mean, s.Protocol+"_final_mean_err_pct")
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the substrates.
// ---------------------------------------------------------------------------

func BenchmarkRateArithmetic(b *testing.B) {
	b.Run("AddSmall", func(b *testing.B) {
		x, y := rate.FromFrac(100_000_000, 3), rate.FromFrac(55_000_000, 7)
		for i := 0; i < b.N; i++ {
			_ = x.Add(y)
		}
	})
	b.Run("CmpSmall", func(b *testing.B) {
		x, y := rate.FromFrac(100_000_000, 3), rate.FromFrac(55_000_000, 7)
		for i := 0; i < b.N; i++ {
			_ = x.Cmp(y)
		}
	})
	b.Run("BottleneckFormula", func(b *testing.B) {
		c := rate.Mbps(500)
		sum := rate.FromFrac(123_456_789, 7)
		for i := 0; i < b.N; i++ {
			_ = c.Sub(sum).DivInt(97)
		}
	})
}

// BenchmarkReconfiguration measures the cost of one topology-event epoch —
// fail an in-use link, migrate the crossing sessions, re-converge, restore —
// on a loaded Small/LAN network (the Experiment 4 shape). The custom metrics
// report the virtual re-quiescence latency and control-packet cost per
// reconfiguration, the perf counters of the dynamic-topology subsystem.
func BenchmarkReconfiguration(b *testing.B) {
	cfg := exp.DefaultExp4()
	cfg.Sizes = []topology.Params{topology.Small}
	cfg.Scenarios = []topology.Scenario{topology.LAN}
	cfg.Sessions = 300
	cfg.Epochs = 6
	cfg.Churn = 0 // isolate the topology-event cost from session churn
	cfg.Validate = false
	var virtUS, pkts, epochs float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seeds = []int64{int64(i + 1)}
		rows, err := exp.RunExperiment4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Epoch == 0 {
				continue
			}
			virtUS += float64(r.Requiescence.Microseconds())
			pkts += float64(r.Packets)
			epochs++
		}
	}
	if epochs > 0 {
		b.ReportMetric(virtUS/epochs/1e3, "virt_ms/reconfig")
		b.ReportMetric(pkts/epochs, "pkts/reconfig")
	}
}

// BenchmarkInternetLadder climbs the three-rung topology ladder — Paper
// (~40 routers), Metro (~1k), Internet (~10k) — on the hierarchical
// internet-scale generator, measuring a join burst to quiescence at each
// rung (the exp.RunInternet shape; only net.Run is timed). The Internet rung
// adds a quarter-size session count, whose bytes/event metric against the
// full-size cell shows per-event memory growing sublinearly with session
// count (the dense session tables at work — no O(sessions) scan on the
// steady-state path). Run it at -benchtime=1x: one 10k-router run is the
// statistic, not an iteration.
func BenchmarkInternetLadder(b *testing.B) {
	cells := []struct {
		rung     string
		params   topology.InternetParams
		sessions int
	}{
		{"Paper", topology.InternetPaper, 400},
		{"Metro", topology.InternetMetro, 2000},
		{"Internet", topology.InternetGlobal, 2500},
		{"Internet", topology.InternetGlobal, 10000},
	}
	for _, c := range cells {
		b.Run(c.rung+"/"+itoa(c.params.Routers())+"r/sessions="+itoa(c.sessions), func(b *testing.B) {
			benchInternet(b, c.params, c.sessions)
		})
	}
}

func benchInternet(b *testing.B, params topology.InternetParams, sessions int) {
	var packets, events, allocBytes uint64
	var ms runtime.MemStats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		topo, err := topology.GenerateInternet(params, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		eng := sim.New()
		net := network.New(topo.Graph, eng, network.DefaultConfig())
		ss, err := exp.PlaceSessions(topo, net, sessions)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(i + 8)))
		demand := trace.MixedDemands(0.25, 1, 100)
		for _, ev := range trace.Joins(0, sessions, 0, time.Millisecond, demand, rng) {
			net.ScheduleJoin(ss[ev.Session], ev.At, ev.Demand)
		}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		b.StartTimer()
		net.Run()
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		allocBytes += ms.TotalAlloc - before
		packets += net.Stats().Total()
		events += eng.Events()
		b.StartTimer()
	}
	b.ReportMetric(float64(packets)/b.Elapsed().Seconds(), "pkts/sec")
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
	if events > 0 {
		b.ReportMetric(float64(allocBytes)/float64(events), "bytes/event")
	}
}

// BenchmarkProtocolThroughput measures end-to-end packets processed per
// second of wall time for a standard Experiment 1 cell.
func BenchmarkProtocolThroughput(b *testing.B) {
	cfg := exp.DefaultExp1()
	cfg.Sizes = []topology.Params{topology.Small}
	cfg.Scenarios = []topology.Scenario{topology.LAN}
	cfg.SessionCounts = []int{2000}
	cfg.Validate = false
	b.ResetTimer()
	var packets uint64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		rows, err := exp.RunExperiment1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		packets += rows[0].Packets
	}
	b.ReportMetric(float64(packets)/b.Elapsed().Seconds(), "pkts/sec")
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
