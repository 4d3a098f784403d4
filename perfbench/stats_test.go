package main

import (
	"math"
	"testing"
)

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 4, 3, 2, 1}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{0.31, 0.29, 0.35, 0.33, 0.30, 0.36, 0.28, 0.34, 0.32, 0.37}, [3]float64{0.2975, 0.325, 0.3525}},
	} {
		q1, q2, q3, ok := quartiles(tc.xs)
		if !ok {
			t.Fatalf("quartiles(%v) refused", tc.xs)
		}
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", tc.xs, i, got, tc.want[i])
			}
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample should refuse")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	for _, tc := range []struct{ q, want float64 }{{0, 10}, {0.5, 25}, {0.9, 37}, {1, 40}} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailPermille(t *testing.T) {
	for _, tc := range []struct {
		n, want int
		ok      bool
	}{
		{19, 0, false},
		{20, 500, true},
		{99, 500, true},
		{100, 900, true},
		{199, 900, true},
		{200, 950, true},
		{999, 950, true},
		{1000, 990, true},
		{10000, 999, true},
	} {
		got, ok := tailPermille(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPermille(%d) = %d, %v; want %d, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok {
			if beyond := tc.n * (1000 - got) / 1000; beyond < 10 {
				t.Errorf("n=%d: p%d leaves only %d samples beyond it", tc.n, got, beyond)
			}
		}
	}
	// job_ms_p90 needs 100 jobs; the benchmark's floor is that number.
	if pm, _ := tailPermille(minJobs); pm != 900 {
		t.Errorf("minJobs = %d reaches p%d, want p90", minJobs, pm/10)
	}
	if pm, _ := tailPermille(minJobs - 1); pm >= 900 {
		t.Errorf("minJobs = %d is larger than p90 needs", minJobs)
	}
}
