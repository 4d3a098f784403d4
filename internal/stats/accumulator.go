package stats

import "math"

// Accumulator computes running statistics of an observable series in O(1)
// memory (Welford's recurrence), so a long-running job can stream samples out
// as it produces them instead of holding the whole series for a batch pass.
// It is the incremental counterpart of Mean/Variance/StdErr; the simulation
// service (internal/service) carries one per observable and checkpoints its
// state, which keeps resumed runs byte-identical to uninterrupted ones — the
// recurrence continues from the exact float64 state it stopped at.
//
// The zero value is ready to use.
type Accumulator struct {
	st AccumulatorState
}

// AccumulatorState is the raw, checkpointable state of an Accumulator. All
// fields round-trip exactly through encoding/json (Go emits the shortest
// representation that parses back to the same float64), which is what the
// service's checkpoint files rely on.
type AccumulatorState struct {
	// N is the number of samples added.
	N int `json:"n"`
	// Mean is the running mean and M2 the running sum of squared deviations
	// (Welford).
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	// Min and Max are the sample extrema (0 when N is 0).
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// Add folds one sample into the accumulator.
func (a *Accumulator) Add(x float64) {
	if a.st.N == 0 {
		a.st.Min, a.st.Max = x, x
	} else {
		if x < a.st.Min {
			a.st.Min = x
		}
		if x > a.st.Max {
			a.st.Max = x
		}
	}
	a.st.N++
	d := x - a.st.Mean
	a.st.Mean += d / float64(a.st.N)
	a.st.M2 += d * (x - a.st.Mean)
}

// N returns the number of samples added.
func (a *Accumulator) N() int { return a.st.N }

// Mean returns the running mean (0 for an empty accumulator).
func (a *Accumulator) Mean() float64 { return a.st.Mean }

// Variance returns the running population variance, matching Variance on the
// same series up to floating-point reassociation.
func (a *Accumulator) Variance() float64 {
	if a.st.N < 2 {
		return 0
	}
	return a.st.M2 / float64(a.st.N)
}

// StdDev returns the running population standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// StdErr returns the naive standard error of the mean. Like StdErr on a
// slice, it assumes independent samples; a streaming consumer that needs
// autocorrelation-aware errors must keep the series and use BinnedError.
func (a *Accumulator) StdErr() float64 {
	if a.st.N == 0 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.st.N))
}

// Min returns the smallest sample (0 for an empty accumulator).
func (a *Accumulator) Min() float64 { return a.st.Min }

// Max returns the largest sample (0 for an empty accumulator).
func (a *Accumulator) Max() float64 { return a.st.Max }

// Summary returns the accumulated statistics as a Summary. Its StdErr field
// is the naive (unbinned) standard error, because a streaming accumulator has
// no series left to bin.
func (a *Accumulator) Summary() Summary {
	return Summary{N: a.st.N, Mean: a.Mean(), StdDev: a.StdDev(), StdErr: a.StdErr(),
		Min: a.Min(), Max: a.Max()}
}

// State returns the raw state for checkpointing.
func (a *Accumulator) State() AccumulatorState { return a.st }

// SetState restores a state previously returned by State.
func (a *Accumulator) SetState(st AccumulatorState) { a.st = st }
