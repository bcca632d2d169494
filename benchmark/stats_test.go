package main

import (
	"math"
	"testing"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vals := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	s := summarize(vals)
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Fatalf("summarize = %+v", s)
	}
	if got, want := s.spread(), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if s := summarize([]float64{3, 1, 2}); s.Q1 != 1 || s.Median != 2 || s.Q3 != 3 {
		t.Fatalf("summarize of three = %+v", s)
	}
	if s := summarize([]float64{4}); s.Q1 != 4 || s.Median != 4 || s.Q3 != 4 || s.N != 1 {
		t.Fatalf("summarize of one = %+v", s)
	}
	if s := summarize(nil); s != (summary{}) {
		t.Fatalf("summarize of none = %+v", s)
	}
	if vals[0] != 10 {
		t.Fatal("summarize reordered its input")
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	vals := []float64{50, 10, 40, 20, 30}
	for _, c := range []struct{ p, want float64 }{{50, 30}, {90, 50}, {100, 50}, {20, 10}, {21, 20}, {1, 10}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Two modes: the percentile is always one of the samples.
	bimodal := []float64{1, 1, 1, 1, 9, 9, 9, 9}
	if got := percentile(bimodal, 50); got != 1 {
		t.Errorf("p50 of bimodal = %v, want a sample (1)", got)
	}
	if got := median([]float64{1, 9}); got != 5 {
		t.Errorf("median = %v", got)
	}
}

// The epoch metrics are percentiles over the plan's epochs of the
// undisturbed time over the repetitions, so repetitions the machine slowed
// down move none of them; the summary beside the value keeps the raw spread.
func TestEpochMetricsIgnoreSlowRepetitions(t *testing.T) {
	rep := func(slow float64) *repResult {
		r := &repResult{RunS: slow, Packets: 1100}
		for e := 0; e <= 10; e++ { // epoch 0 is the join storm and is left out
			r.EpochMs = append(r.EpochMs, float64(10*e+100)*slow)
			r.ValidateMs = append(r.ValidateMs, float64(e+1)*slow)
		}
		return r
	}
	w := &workloadResult{Name: wlChurn, Reps: []*repResult{rep(1.5), rep(3), rep(1), rep(1.2)}}
	w.finish(1, scales["tiny"])
	m := w.Metrics
	if m["epoch_ms_p50"].Value != 150 || m["epoch_ms_p90"].Value != 190 || m["validate_ms"].Value != 6 {
		t.Fatalf("p50 %+v p90 %+v validate %+v", m["epoch_ms_p50"], m["epoch_ms_p90"], m["validate_ms"])
	}
	// 1100 packets over epochs of 100, 110, ..., 200 ms.
	if got := m["pkts_per_s"].Value; math.Abs(got-1100/1.65) > 1e-9 {
		t.Fatalf("pkts_per_s %v", got)
	}
	if m["epoch_ms_p50"].Median <= 150 || m["epoch_ms_p50"].N != 4 || m["validate_ms"].N != 44 {
		t.Fatalf("raw summaries: p50 %+v validate %+v", m["epoch_ms_p50"], m["validate_ms"])
	}
	// A workload that lost every repetition reports zeros, not NaN.
	lost := &workloadResult{Name: wlChurn, Lost: 1}
	lost.finish(1, scales["tiny"])
	if lost.Metrics["pkts_per_s"].Value != 0 || lost.Failed == 0 {
		t.Fatalf("lost workload: %+v failed %d", lost.Metrics["pkts_per_s"], lost.Failed)
	}
}

func TestUndisturbedIsTheLowestDecile(t *testing.T) {
	var times []float64
	for i := 19; i >= 1; i-- {
		times = append(times, float64(i))
	}
	if got := undisturbed(times); got != 2 { // position 0.1 * (19+1)
		t.Errorf("undisturbed of 1..19 = %v, want 2", got)
	}
	if got := undisturbed([]float64{7, 5, 9}); got != 5 {
		t.Errorf("undisturbed of three = %v, want the fastest", got)
	}
	if undisturbed(nil) != 0 {
		t.Error("undisturbed of none")
	}
}
