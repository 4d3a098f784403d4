package stats

import "math"

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// StdErr returns the naive standard error of the mean (assumes independent
// samples; see BinnedError for correlated chains).
func StdErr(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// Moment returns the k-th raw moment <x^k>.
func Moment(xs []float64, k int) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Pow(x, float64(k))
	}
	return s / float64(len(xs))
}

// Binder returns the Binder parameter (fourth-order cumulant) of the
// magnetisation samples: U4 = 1 - <m^4> / (3 <m^2>^2).  Curves of U4(T) for
// different lattice sizes cross at the critical temperature.
func Binder(ms []float64) float64 {
	m2 := Moment(ms, 2)
	if m2 == 0 {
		return 0
	}
	m4 := Moment(ms, 4)
	return 1 - m4/(3*m2*m2)
}

// Autocorrelation returns the normalised autocorrelation of xs at the given
// lag (1 at lag 0).
func Autocorrelation(xs []float64, lag int) float64 {
	if lag < 0 || lag >= len(xs) {
		return 0
	}
	m := Mean(xs)
	var num, den float64
	for i := 0; i < len(xs); i++ {
		den += (xs[i] - m) * (xs[i] - m)
	}
	if den == 0 {
		return 0
	}
	for i := 0; i+lag < len(xs); i++ {
		num += (xs[i] - m) * (xs[i+lag] - m)
	}
	return num / den
}

// IntegratedAutocorrTime returns the integrated autocorrelation time
// tau = 1 + 2*sum_k rho(k), truncated at the first non-positive
// autocorrelation (a standard self-consistent window).
func IntegratedAutocorrTime(xs []float64) float64 {
	tau := 1.0
	for lag := 1; lag < len(xs)/2; lag++ {
		rho := Autocorrelation(xs, lag)
		if rho <= 0 {
			break
		}
		tau += 2 * rho
	}
	return tau
}

// BinnedError returns the standard error of the mean estimated by binning the
// chain into nbins equal bins, which accounts for autocorrelation when the
// bins are longer than the correlation time.
func BinnedError(xs []float64, nbins int) float64 {
	if nbins < 2 || len(xs) < nbins {
		return StdErr(xs)
	}
	binSize := len(xs) / nbins
	means := make([]float64, 0, nbins)
	for b := 0; b < nbins; b++ {
		means = append(means, Mean(xs[b*binSize:(b+1)*binSize]))
	}
	return StdDev(means) / math.Sqrt(float64(nbins))
}

// Summary bundles the statistics of one observable time series.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	StdErr float64
	Min    float64
	Max    float64
}
