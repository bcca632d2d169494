package exp

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"bneck/internal/core"
	"bneck/internal/metrics"
)

// writeCSV writes the header and then record(0), …, record(n-1) as CSV.
func writeCSV(w io.Writer, header []string, n int, record func(i int) []string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := cw.Write(record(i)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFile creates name through open (typically a file in an output
// directory), fills it with write and closes it, closing it on a failed
// write too.
func WriteFile(open func(name string) (io.WriteCloser, error), name string, write func(io.Writer) error) error {
	f, err := open(name)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteExp1CSV emits Experiment 1 rows as CSV (one row per Figure 5 point).
func WriteExp1CSV(w io.Writer, rows []Exp1Row) error {
	return writeCSV(w, []string{
		"network", "scenario", "sessions", "quiescence_us", "packets", "packets_per_session",
	}, len(rows), func(i int) []string {
		r := rows[i]
		return []string{
			r.Network, r.Scenario,
			strconv.Itoa(r.Sessions),
			strconv.FormatInt(r.Quiescence.Microseconds(), 10),
			strconv.FormatUint(r.Packets, 10),
			strconv.FormatFloat(r.PacketsPerSession, 'f', 2, 64),
		}
	})
}

// WriteExp2CSV emits Experiment 2's per-bin packet-type counts (Figure 6).
func WriteExp2CSV(w io.Writer, res *Exp2Result) error {
	header := []string{"t_us", "total"}
	for t := core.PktJoin; t <= core.PktLeave; t++ {
		header = append(header, t.String())
	}
	return writeCSV(w, header, len(res.Bins), func(i int) []string {
		bin := res.Bins[i]
		rec := []string{
			strconv.FormatInt(bin.Start.Microseconds(), 10),
			strconv.FormatUint(bin.Total, 10),
		}
		for t := core.PktJoin; t <= core.PktLeave; t++ {
			rec = append(rec, strconv.FormatUint(bin.ByType[t-1], 10))
		}
		return rec
	})
}

// WriteExp4CSV emits Experiment 4 rows: one line per reconfiguration epoch
// per sweep cell.
func WriteExp4CSV(w io.Writer, rows []Exp4Row) error {
	return writeCSV(w, []string{
		"network", "scenario", "seed", "epoch", "events", "joins", "leaves", "changes",
		"active", "stranded", "migrated", "requiescence_us", "packets",
	}, len(rows), func(i int) []string {
		r := rows[i]
		return []string{
			r.Network, r.Scenario,
			strconv.FormatInt(r.Seed, 10),
			strconv.Itoa(r.Epoch),
			r.Events,
			strconv.Itoa(r.Joins),
			strconv.Itoa(r.Leaves),
			strconv.Itoa(r.Changes),
			strconv.Itoa(r.Active),
			strconv.Itoa(r.Stranded),
			strconv.FormatUint(r.Migrated, 10),
			strconv.FormatInt(r.Requiescence.Microseconds(), 10),
			strconv.FormatUint(r.Packets, 10),
		}
	})
}

// WriteExp5CSV emits Experiment 5 rows: one line per phase per policy per
// sweep cell — the regained-hops/regained-rate vs reconfiguration-packet
// trade of the path re-optimization policy.
func WriteExp5CSV(w io.Writer, rows []Exp5Row) error {
	return writeCSV(w, []string{
		"network", "scenario", "seed", "policy", "phase", "active", "stranded",
		"migrated", "reoptimized", "hops_active", "hops_best", "excess_hops",
		"sum_rate_mbps", "requiescence_us", "packets", "reconfig_packets",
	}, len(rows), func(i int) []string {
		r := rows[i]
		return []string{
			r.Network, r.Scenario,
			strconv.FormatInt(r.Seed, 10),
			r.Policy, r.Phase,
			strconv.Itoa(r.Active),
			strconv.Itoa(r.Stranded),
			strconv.FormatUint(r.Migrated, 10),
			strconv.FormatUint(r.Reoptimized, 10),
			strconv.Itoa(r.HopsActive),
			strconv.Itoa(r.HopsBest),
			strconv.Itoa(r.HopsActive - r.HopsBest),
			strconv.FormatFloat(r.SumRateMbps, 'f', 2, 64),
			strconv.FormatInt(r.Requiescence.Microseconds(), 10),
			strconv.FormatUint(r.Packets, 10),
			strconv.FormatUint(r.ReconfigPackets, 10),
		}
	})
}

// WriteExp3ErrorCSV emits one protocol's Figure 7 error series (sources or
// links).
func WriteExp3ErrorCSV(w io.Writer, s metrics.Series, protocol string) error {
	return writeCSV(w, []string{
		"protocol", "t_us", "n", "mean_pct", "median_pct", "p10_pct", "p90_pct",
	}, len(s.Points), func(i int) []string {
		p := s.Points[i]
		return []string{
			protocol,
			strconv.FormatInt(p.At.Microseconds(), 10),
			strconv.Itoa(p.Summary.N),
			strconv.FormatFloat(p.Summary.Mean, 'f', 4, 64),
			strconv.FormatFloat(p.Summary.Median, 'f', 4, 64),
			strconv.FormatFloat(p.Summary.P10, 'f', 4, 64),
			strconv.FormatFloat(p.Summary.P90, 'f', 4, 64),
		}
	})
}

// WriteExp3PacketsCSV emits the Figure 8 packets-per-interval series for all
// protocols in res, aligned on bin start times.
func WriteExp3PacketsCSV(w io.Writer, res *Exp3Result) error {
	header := []string{"t_us"}
	for _, s := range res.Series {
		header = append(header, s.Protocol)
	}
	starts, counts := fig8Table(res)
	return writeCSV(w, header, len(starts), func(i int) []string {
		rec := []string{strconv.FormatInt(starts[i].Microseconds(), 10)}
		for _, c := range counts[i] {
			rec = append(rec, strconv.FormatUint(c, 10))
		}
		return rec
	})
}

// WriteAllCSV writes every series of an experiment 3 result into per-figure
// files through open (see WriteFile).
func WriteAllCSV(res *Exp3Result, open func(name string) (io.WriteCloser, error)) error {
	for _, s := range res.Series {
		if err := WriteFile(open, fmt.Sprintf("fig7_sources_%s.csv", s.Protocol), func(w io.Writer) error {
			return WriteExp3ErrorCSV(w, s.SourceErr, s.Protocol)
		}); err != nil {
			return err
		}
		if err := WriteFile(open, fmt.Sprintf("fig7_links_%s.csv", s.Protocol), func(w io.Writer) error {
			return WriteExp3ErrorCSV(w, s.LinkErr, s.Protocol)
		}); err != nil {
			return err
		}
	}
	return WriteFile(open, "fig8_packets.csv", func(w io.Writer) error {
		return WriteExp3PacketsCSV(w, res)
	})
}
