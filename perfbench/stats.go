package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics (the numpy/R type-7 estimator).
// It returns NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so the spreads this benchmark prints are the ones a caller
// computing them in Python sees. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2], true
}

// tailPermille is the percentile rule for reporting a timing's tail: of the
// candidate percentiles (in per-mille), the highest that leaves at least ten
// samples beyond it. ok is false when fewer than 20 samples leave not even
// the median with ten beyond it.
func tailPermille(n int) (permille int, ok bool) {
	for _, pm := range []int{999, 990, 950, 900, 500} {
		if n*(1000-pm)/1000 >= 10 {
			return pm, true
		}
	}
	return 0, false
}

// durationsMs converts durations to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// medianOf runs fn n times and returns the median duration.
func medianOf(n int, fn func() time.Duration) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		ds[i] = float64(fn())
	}
	return time.Duration(median(ds))
}
