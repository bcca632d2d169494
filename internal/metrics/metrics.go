// Package metrics collects the measurements the paper's evaluation reports:
// packet counts by type over time bins (Figure 6, Figure 8), and percentile
// summaries of relative rate errors (Figure 7).
package metrics

import (
	"sort"
	"time"

	"bneck/internal/core"
)

// PacketStats counts protocol packets, total, by type, and by time bin.
type PacketStats struct {
	binSize time.Duration
	total   uint64
	byType  [core.NumPacketTypes]uint64
	bins    []Bin
}

// Bin is one time interval's packet counts.
type Bin struct {
	Start  time.Duration
	Total  uint64
	ByType [core.NumPacketTypes]uint64
}

// NewPacketStats returns a collector binning by binSize (≤ 0 disables
// binning).
func NewPacketStats(binSize time.Duration) *PacketStats {
	return &PacketStats{binSize: binSize}
}

// Record accounts one packet of type t crossing a link at virtual time at.
func (ps *PacketStats) Record(t core.PacketType, at time.Duration) {
	ps.total++
	ps.byType[t-1]++
	if ps.binSize <= 0 {
		return
	}
	idx := int(at / ps.binSize)
	for len(ps.bins) <= idx {
		ps.bins = append(ps.bins, Bin{Start: time.Duration(len(ps.bins)) * ps.binSize})
	}
	ps.bins[idx].Total++
	ps.bins[idx].ByType[t-1]++
}

// Total returns the number of packets recorded.
func (ps *PacketStats) Total() uint64 { return ps.total }

// ByType returns the count for one packet type.
func (ps *PacketStats) ByType(t core.PacketType) uint64 { return ps.byType[t-1] }

// Bins returns a copy of the per-interval counts.
func (ps *PacketStats) Bins() []Bin {
	return append([]Bin(nil), ps.bins...)
}

// Summary describes a sample distribution the way Figure 7 reports it:
// average, median, and the 10th/90th percentiles.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	P10    float64
	P90    float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary of vals. It returns a zero Summary for an
// empty sample. vals is not modified.
func Summarize(vals []float64) Summary {
	if len(vals) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return Summary{
		N:      len(sorted),
		Mean:   sum / float64(len(sorted)),
		Median: percentile(sorted, 0.50),
		P10:    percentile(sorted, 0.10),
		P90:    percentile(sorted, 0.90),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
	}
}

// percentile interpolates linearly between closest ranks; sorted must be
// ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Series accumulates (time, Summary) points, one per sample instant —
// Figure 7's x axis.
type Series struct {
	Points []SeriesPoint
}

// SeriesPoint is one sampled distribution.
type SeriesPoint struct {
	At      time.Duration
	Summary Summary
}

// Add appends a sample point.
func (s *Series) Add(at time.Duration, vals []float64) {
	s.Points = append(s.Points, SeriesPoint{At: at, Summary: Summarize(vals)})
}

// RelativeErrorPct is Figure 7's error measure: 100·(assigned−fair)/fair.
func RelativeErrorPct(assigned, fair float64) float64 {
	if fair == 0 {
		return 0
	}
	return 100 * (assigned - fair) / fair
}
