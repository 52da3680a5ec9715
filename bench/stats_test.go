package main

import (
	"math"
	"testing"
)

// Expected values come from Python's statistics.quantiles(xs, n=4) and
// statistics.median, the tools the benchmark's spreads are checked with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 4, 7},
		{[]float64{1.5, 2.5, 2.5, 10, 0.25, 7, 8, 3}, 1.75, 2.75, 7.75},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); !near(m, c.q2) {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.q2)
		}
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("quartiles(nil) = %v, want NaN", q1)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); !near(got, c.want) {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestCompareMetric(t *testing.T) {
	lower := metric{name: "step_ms_p50", bound: 0.10}
	higher := metric{name: "points_per_ys", higher: true, bound: 0.10}
	for _, c := range []struct {
		name           string
		m              metric
		parent, change []float64
		want           string
	}{
		{"identical runs", lower,
			[]float64{100, 101, 99, 100, 102}, []float64{100, 101, 99, 100, 102}, verdictSame},
		{"faster in every pair by more than the IQR", lower,
			[]float64{100, 101, 99, 100, 102}, []float64{90, 91, 89, 90, 92}, verdictImproved},
		{"faster but only 8 of 10 pairs", lower,
			[]float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100},
			[]float64{90, 90, 90, 90, 90, 90, 90, 90, 105, 105}, verdictSame},
		{"slower by 15% against a 10% bound", lower,
			[]float64{100, 101, 99, 100, 102}, []float64{115, 116, 114, 115, 117}, verdictRegressed},
		{"slower by 5%: within bound", lower,
			[]float64{100, 101, 99, 100, 102}, []float64{105, 106, 104, 105, 107}, verdictSame},
		{"parent spread wider than the bound", lower,
			[]float64{80, 120, 90, 110, 100}, []float64{115, 116, 114, 115, 117}, verdictUnresolved},
		{"wide spread, every change run better, gap inside the IQR", lower,
			[]float64{100, 100, 100, 150, 200}, []float64{99, 99, 99, 99, 99}, verdictSame},
		{"higher is better: throughput fell 20%", higher,
			[]float64{1000, 1010, 990, 1000, 1005}, []float64{800, 810, 790, 800, 805}, verdictRegressed},
		{"higher is better: throughput rose", higher,
			[]float64{1000, 1010, 990, 1000, 1005}, []float64{1200, 1210, 1190, 1200, 1205}, verdictImproved},
	} {
		if got := compareMetric(c.m, c.parent, c.change); got.verdict != c.want {
			t.Errorf("%s: verdict %s (wins %d/%d, medians %v → %v), want %s",
				c.name, got.verdict, got.wins, got.pairs, got.parentMed, got.changeMed, c.want)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }
