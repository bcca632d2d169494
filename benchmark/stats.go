package main

import (
	"math"
	"sort"
)

// summary is what the benchmark prints for one metric: the value it reports
// (to the driver, and to -selfcheck), and the median over the raw samples,
// the quartiles around it and the sample count. The value is the median
// unless reporting() has replaced it.
type summary struct {
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median, quartiles and count of vals. The quartiles
// follow Python's statistics.quantiles(values, n=4) (the "exclusive"
// method), because that is how the driver computes spreads from the
// benchmark's output; the median is the ordinary one.
func summarize(vals []float64) summary {
	if len(vals) == 0 {
		return summary{}
	}
	s := sorted(vals)
	return summary{
		Value:  quantileExclusive(s, 0.5),
		Median: quantileExclusive(s, 0.5),
		Q1:     quantileExclusive(s, 0.25),
		Q3:     quantileExclusive(s, 0.75),
		N:      len(s),
	}
}

// reporting returns s with v as the value it reports.
func (s summary) reporting(v float64) summary {
	s.Value = v
	return s
}

// undisturbed estimates what a piece of work costs when nothing else slows
// the machine down, from the times the same work took in every repetition:
// their lowest decile. Noise here is one-sided - a neighbour on the host
// only ever makes a repetition slower, for seconds to minutes at a time and
// by 20-35 % - so a run that such a phase covers in part has a median
// anywhere between the two levels, while its lowest decile stays at the
// undisturbed one as long as a few repetitions ran in the clear. Over forty
// driver-style runs per workload this took the largest spread of any metric
// from 24.8 % (median over the repetitions) to 15.8 % (README.md). A real
// regression moves every quantile alike, so nothing is lost for detecting
// one.
func undisturbed(times []float64) float64 {
	if len(times) == 0 {
		return 0
	}
	return quantileExclusive(sorted(times), 0.1)
}

func sorted(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return quantileExclusive(sorted(vals), 0.5)
}

// quantileExclusive interpolates the p-quantile of an ascending slice at
// position p·(n+1), clamped to the ends — statistics.quantiles' default.
func quantileExclusive(s []float64, p float64) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	pos := p * float64(n+1)
	j := int(math.Floor(pos))
	if j < 1 {
		return s[0]
	}
	if j >= n {
		return s[n-1]
	}
	frac := pos - float64(j)
	return s[j-1] + frac*(s[j]-s[j-1])
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// vals: the smallest sample with at least p % of the samples at or below
// it. Nearest-rank never invents a value between two modes, which matters
// for pooled epoch times.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sorted(vals)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// spread is the interquartile distance as a share of the median — the
// noise figure the driver compares against a metric's bound.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}
