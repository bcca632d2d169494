package exp

import (
	"fmt"
	"strings"
	"time"

	"bneck/internal/core"
	"bneck/internal/metrics"
)

// FormatExp1 renders Experiment 1 rows as the two Figure 5 tables: time to
// quiescence and packets, one row per (network, scenario, sessions).
func FormatExp1(rows []Exp1Row) string {
	var b strings.Builder
	b.WriteString("Figure 5 — Experiment 1: simultaneous session arrivals\n")
	b.WriteString(fmt.Sprintf("%-8s %-5s %10s %16s %14s %12s %14s %14s\n",
		"network", "scen", "sessions", "quiescence", "packets", "pkts/sess",
		"settle p50", "settle p90"))
	for _, r := range rows {
		b.WriteString(fmt.Sprintf("%-8s %-5s %10d %16v %14d %12.1f %14v %14v\n",
			r.Network, r.Scenario, r.Sessions, r.Quiescence, r.Packets, r.PacketsPerSession,
			r.SettleP50.Round(time.Microsecond), r.SettleP90.Round(time.Microsecond)))
	}
	return b.String()
}

// FormatExp2 renders Experiment 2 as the Figure 6 phase table plus the
// per-bin packet-type breakdown.
func FormatExp2(res *Exp2Result) string {
	var b strings.Builder
	b.WriteString("Figure 6 — Experiment 2: dynamics on Medium/LAN\n")
	b.WriteString(fmt.Sprintf("%-22s %12s %14s %12s %14s\n",
		"phase", "start", "quiescent at", "took", "packets"))
	for _, p := range res.Phases {
		b.WriteString(fmt.Sprintf("%-22s %12v %14v %12v %14d\n",
			p.Name, p.Start.Round(time.Microsecond), p.Quiescence.Round(time.Microsecond),
			p.Took.Round(time.Microsecond), p.Packets))
	}
	b.WriteString("\nPackets per interval by type:\n")
	b.WriteString(fmt.Sprintf("%-10s %9s", "t", "total"))
	for t := core.PktJoin; t <= core.PktLeave; t++ {
		b.WriteString(fmt.Sprintf(" %13s", t.String()))
	}
	b.WriteString("\n")
	for _, bin := range res.Bins {
		if bin.Total == 0 {
			continue
		}
		b.WriteString(fmt.Sprintf("%-10v %9d", bin.Start, bin.Total))
		for t := core.PktJoin; t <= core.PktLeave; t++ {
			b.WriteString(fmt.Sprintf(" %13d", bin.ByType[t-1]))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FormatExp4 renders Experiment 4 as a per-epoch reconfiguration table.
func FormatExp4(rows []Exp4Row) string {
	var b strings.Builder
	b.WriteString("Experiment 4: quiescence under topology churn (failures, restores, capacity changes)\n")
	b.WriteString(fmt.Sprintf("%-8s %-5s %5s %6s %9s %9s %9s %14s %10s  %s\n",
		"network", "scen", "seed", "epoch", "active", "strand", "migrated", "requiescence", "packets", "events"))
	for _, r := range rows {
		b.WriteString(fmt.Sprintf("%-8s %-5s %5d %6d %9d %9d %9d %14v %10d  %s\n",
			r.Network, r.Scenario, r.Seed, r.Epoch, r.Active, r.Stranded, r.Migrated,
			r.Requiescence.Round(time.Microsecond), r.Packets, r.Events))
	}
	return b.String()
}

// FormatExp5 renders Experiment 5 as a per-phase policy comparison table.
func FormatExp5(rows []Exp5Row) string {
	var b strings.Builder
	b.WriteString("Experiment 5: path re-optimization after restores (pinned vs reoptimize)\n")
	b.WriteString(fmt.Sprintf("%-8s %-5s %5s %-11s %-8s %7s %6s %9s %7s %7s %7s %12s %14s %10s %13s\n",
		"network", "scen", "seed", "policy", "phase", "active", "strand", "migr/reopt",
		"hops", "best", "excess", "rate(Mbps)", "requiescence", "packets", "reconfig_pkts"))
	for _, r := range rows {
		b.WriteString(fmt.Sprintf("%-8s %-5s %5d %-11s %-8s %7d %6d %5d/%-3d %7d %7d %7d %12.1f %14v %10d %13d\n",
			r.Network, r.Scenario, r.Seed, r.Policy, r.Phase, r.Active, r.Stranded,
			r.Migrated, r.Reoptimized, r.HopsActive, r.HopsBest, r.HopsActive-r.HopsBest,
			r.SumRateMbps, r.Requiescence.Round(time.Microsecond), r.Packets, r.ReconfigPackets))
	}
	return b.String()
}

// FormatExp3 renders Experiment 3 as the Figure 7 error tables and the
// Figure 8 packets-per-interval series.
func FormatExp3(res *Exp3Result) string {
	var b strings.Builder
	for _, s := range res.Series {
		b.WriteString(fmt.Sprintf("Figure 7 — Experiment 3, %s: rate error at sources (%%)\n", s.Protocol))
		writeSeries(&b, s.SourceErr)
		b.WriteString(fmt.Sprintf("\nFigure 7 — Experiment 3, %s: error on bottleneck links (%%)\n", s.Protocol))
		writeSeries(&b, s.LinkErr)
		b.WriteString("\n")
	}
	b.WriteString("Figure 8 — Experiment 3: packets per interval\n")
	b.WriteString(fmt.Sprintf("%-10s", "t"))
	for _, s := range res.Series {
		b.WriteString(fmt.Sprintf(" %12s", s.Protocol))
	}
	b.WriteString("\n")
	starts, counts := fig8Table(res)
	for i, start := range starts {
		b.WriteString(fmt.Sprintf("%-10v", start))
		for _, c := range counts[i] {
			b.WriteString(fmt.Sprintf(" %12d", c))
		}
		b.WriteString("\n")
	}
	b.WriteString("\nSummary:\n")
	for _, s := range res.Series {
		b.WriteString(fmt.Sprintf("  %-6s packets=%-10d converged=%-12v quiescent=%t",
			s.Protocol, s.Packets, s.ConvergedAt, s.Quiescent))
		if s.Quiescent {
			b.WriteString(fmt.Sprintf(" (at %v)", s.QuiescenceAt))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// fig8Table aligns the protocols' Figure 8 bins on bin index, out to the
// longest series: row i is bin i's start and each protocol's packet count
// (0 past the end of its series).
func fig8Table(res *Exp3Result) (starts []time.Duration, counts [][]uint64) {
	for j, s := range res.Series {
		for i, bin := range s.Bins {
			if i == len(starts) {
				starts = append(starts, bin.Start)
				counts = append(counts, make([]uint64, len(res.Series)))
			}
			starts[i], counts[i][j] = bin.Start, bin.Total
		}
	}
	return starts, counts
}

func writeSeries(b *strings.Builder, s metrics.Series) {
	b.WriteString(fmt.Sprintf("%-10s %10s %10s %10s %10s\n", "t", "mean", "median", "p10", "p90"))
	for _, p := range s.Points {
		b.WriteString(fmt.Sprintf("%-10v %10.2f %10.2f %10.2f %10.2f\n",
			p.At, p.Summary.Mean, p.Summary.Median, p.Summary.P10, p.Summary.P90))
	}
}
