package tempering

import (
	"fmt"
	"math"

	"tpuising/internal/device/metrics"
	"tpuising/internal/ising"
	"tpuising/internal/perf"
	"tpuising/internal/rng"
	"tpuising/internal/stats"
)

// ReplicaSeed derives the chain seed of one ladder slot from the run seed,
// so replicas never share site-keyed streams. It is ising.LaneSeed — the one
// seed-derivation rule of the batch axis — which is what makes a ladder run
// as a lane-packed ensemble (NewBatch over internal/ising/ensemble)
// bit-identical to the same ladder run as separate backends behind
// ising.NewBatchOf: lane L and replica L are the same chain. The
// swap-decision stream uses the run seed itself through rng.PairKeyed, whose
// key derivation is independent of every site-keyed stream.
func ReplicaSeed(seed uint64, slot int) uint64 {
	return ising.LaneSeed(seed, slot)
}

// DefaultWindow returns the default half-width of the temperature ladder
// around Tc, as a fraction of Tc, for a lattice of `spins` sites and
// `replicas` ladder rungs.
//
// Swap acceptance between adjacent temperatures is healthy when the energy
// histograms of the two rungs overlap: delta_beta * sigma_E ~ 1, where
// sigma_E = T*sqrt(N*c) is the extensive energy fluctuation (c the specific
// heat per spin, ~1.5 near but not at Tc). With an evenly spaced ladder of n
// rungs across Tc*(1 +- w), delta_beta ~ 2*w*Tc / ((n-1)*T^2), so the
// widest window keeping the overlap condition is w ~ (n-1)/(2*sqrt(N*c)) ~
// 0.4*(n-1)/sqrt(N). The result is capped at 0.1 so tiny demo lattices do
// not stretch past the paper's T/Tc plotting window.
func DefaultWindow(spins, replicas int) float64 {
	if spins <= 0 || replicas < 2 {
		return 0.1
	}
	w := 0.4 * float64(replicas-1) / math.Sqrt(float64(spins))
	if w > 0.1 {
		w = 0.1
	}
	return w
}

// Config describes a parallel-tempering run.
type Config struct {
	// Temperatures is the ladder, strictly ascending, at least two entries.
	Temperatures []float64
	// SwapInterval is the number of sweeps every replica performs between
	// swap phases (default 1).
	SwapInterval int
	// Seed seeds the pair/round-keyed swap-decision stream (the replicas'
	// own streams are seeded by their constructors).
	Seed uint64
	// Workers is not read: how many rungs sweep concurrently is the batch
	// backend's own setting (for example ising.NewBatchOf's workers).
	Workers int
}

func (c Config) withDefaults() Config {
	out := c
	if out.SwapInterval <= 0 {
		out.SwapInterval = 1
	}
	return out
}

// Ensemble is a running parallel-tempering simulation: one replica per
// ladder temperature, a slot permutation tracking which replica currently
// holds which temperature, and the accumulated samples and swap statistics.
type Ensemble struct {
	cfg   Config
	betas []float64

	// batch is one ising.BatchTempered whose lane i is walker i: the ladder
	// runs as a single batched ensemble, one Sweep advancing every rung. A
	// walker's lattice stays put for the whole run while its temperature
	// label moves.
	batch ising.BatchTempered
	spins int
	// slot[t] is the replica currently at temperature index t; tempOf is the
	// inverse permutation.
	slot, tempOf []int
	// dir[i] tracks walker i's ladder traversal with exactly the state
	// machine of stats.RoundTrips (asserted equivalent by test): 0 before
	// touching either end, +1 after touching the bottom (heading up), -1
	// after touching the top on the way back down.
	dir        []int8
	roundTrips int

	prng  *rng.PairKeyed
	round uint64 // swap phases performed

	pairAttempts, pairAccepts []int64 // indexed by the lower temperature of the pair
	swapComm                  metrics.Counts

	// Per temperature slot: the measured magnetisation series and the
	// in-order running sum of the measured energies (whatever replica held
	// the slot at measurement time). |m| is derived from ms by Report, and
	// the energy mean needs only the sum, so one series per rung is kept.
	ms        [][]float64
	energySum []float64
}

// newEnsemble validates the ladder and builds the walker bookkeeping.
func newEnsemble(c Config) (*Ensemble, error) {
	n := len(c.Temperatures)
	if n < 2 {
		return nil, fmt.Errorf("tempering: need at least 2 temperatures, got %d", n)
	}
	e := &Ensemble{
		cfg:          c,
		betas:        make([]float64, n),
		slot:         make([]int, n),
		tempOf:       make([]int, n),
		dir:          make([]int8, n),
		prng:         rng.NewPairKeyed(c.Seed),
		pairAttempts: make([]int64, n-1),
		pairAccepts:  make([]int64, n-1),
		ms:           make([][]float64, n),
		energySum:    make([]float64, n),
	}
	for t, temp := range c.Temperatures {
		if temp <= 0 {
			return nil, fmt.Errorf("tempering: temperature %d is %g, must be positive", t, temp)
		}
		if t > 0 && temp <= c.Temperatures[t-1] {
			return nil, fmt.Errorf("tempering: ladder must be strictly ascending, got %g after %g",
				temp, c.Temperatures[t-1])
		}
		e.betas[t] = ising.Beta(temp)
		e.slot[t] = t
		e.tempOf[t] = t
	}
	// Walker 0 starts at the bottom rung, so it is already "heading up";
	// every other walker (the top one included) has touched neither end yet
	// — matching stats.RoundTrips, which counts a trip only after a walker
	// has gone bottom -> top -> bottom.
	e.dir[e.slot[0]] = +1
	return e, nil
}

// NewBatch builds an ensemble over one batched backend: lane t of the batch
// is the walker starting at ladder slot t. The batch must implement
// ising.BatchTempered (so an accepted swap can re-label two lanes in place),
// have exactly one lane per rung, and be freshly constructed — NewBatch sets
// every lane's temperature to its rung, which on an unswept batch is the
// same as constructing the lane at that temperature.
//
// Because the batch axis and the ladder share one seed-derivation rule
// (ReplicaSeed == ising.LaneSeed), a ladder over the lane-packed engine of
// internal/ising/ensemble is bit-identical — same swap decisions, same
// per-rung observables, same swap counters — to the same ladder over
// separate multispin replicas behind ising.NewBatchOf, which the equivalence
// tests assert. The win is execution: one Sweep advances every rung through
// one pass of the packed kernel instead of N separate engine sweeps.
func NewBatch(cfg Config, batch ising.BatchBackend) (*Ensemble, error) {
	e, err := newEnsemble(cfg.withDefaults())
	if err != nil {
		return nil, err
	}
	bt, ok := batch.(ising.BatchTempered)
	if !ok {
		return nil, fmt.Errorf("tempering: batch backend %s cannot change lane temperatures (does not implement ising.BatchTempered)",
			batch.Name())
	}
	if batch.Lanes() != len(e.betas) {
		return nil, fmt.Errorf("tempering: batch backend has %d lanes for a %d-rung ladder",
			batch.Lanes(), len(e.betas))
	}
	if batch.Step() != 0 {
		return nil, fmt.Errorf("tempering: batch backend already swept (step %d); NewBatch needs a fresh one", batch.Step())
	}
	e.spins = batch.N()
	if e.spins <= 0 {
		return nil, fmt.Errorf("tempering: batch backend reports %d spins", e.spins)
	}
	for t, temp := range e.cfg.Temperatures {
		bt.SetLaneTemperature(t, temp)
	}
	e.batch = bt
	return e, nil
}

// Replicas returns the number of temperature replicas.
func (e *Ensemble) Replicas() int { return len(e.betas) }

// Spins returns the per-replica spin count.
func (e *Ensemble) Spins() int { return e.spins }

// Temperatures returns the ladder (ascending; it never changes — swaps move
// replicas between slots, not slot temperatures).
func (e *Ensemble) Temperatures() []float64 {
	return append([]float64(nil), e.cfg.Temperatures...)
}

// Rounds returns the number of swap phases performed so far.
func (e *Ensemble) Rounds() uint64 { return e.round }

// Permutation returns slot -> replica: element t is the index of the walker
// currently holding temperature t.
func (e *Ensemble) Permutation() []int { return append([]int(nil), e.slot...) }

// Backend returns a read-only view of the lane currently holding temperature
// slot t (observables and identity read through; it cannot sweep a single
// rung).
func (e *Ensemble) Backend(t int) ising.Backend {
	return ising.LaneView(e.batch, e.slot[t])
}

// SweepReplicas advances every replica by k sweeps: one batch Sweep per
// step advances all rungs. The chains are independent between swap phases,
// so how the batch spreads its lanes over cores never changes any result.
func (e *Ensemble) SweepReplicas(k int) {
	for i := 0; i < k; i++ {
		e.batch.Sweep()
	}
}

// AttemptSwaps performs one swap phase: every active adjacent pair (even
// pairs on even rounds, odd pairs on odd rounds) attempts a Metropolis swap,
// serially and in ascending pair order. The uniform deciding pair t at round
// r is rng.PairKeyed's value for (r, t), so the outcome is a pure function
// of (seed, round, pair) — independent of workers and timing.
func (e *Ensemble) AttemptSwaps() {
	n := len(e.betas)
	// One pass yields every walker's energy (the packed engine computes all
	// lanes in one sweep over the words).
	energies := e.batch.Energies()
	parity := int(e.round & 1)
	for t := parity; t+1 < n; t += 2 {
		a, b := e.slot[t], e.slot[t+1]
		ea := energies[a] * float64(e.spins)
		eb := energies[b] * float64(e.spins)
		// The two replicas exchange their extensive energies; the decision is
		// then a shared pure function, needing no further communication.
		e.swapComm.CommBytes += 2 * perf.EnergyMessageBytes
		e.swapComm.CommEvents += 2
		e.swapComm.CommHops += 2
		delta := (e.betas[t] - e.betas[t+1]) * (ea - eb)
		u := e.prng.Uniform(e.round, t)
		e.pairAttempts[t]++
		if delta >= 0 || u < math.Exp(delta) {
			e.pairAccepts[t]++
			e.slot[t], e.slot[t+1] = b, a
			e.tempOf[a], e.tempOf[b] = t+1, t
			e.batch.SetLaneTemperature(a, e.cfg.Temperatures[t+1])
			e.batch.SetLaneTemperature(b, e.cfg.Temperatures[t])
		}
	}
	e.round++
	// Walker diffusion bookkeeping: a walker back at the bottom after
	// touching the top has completed one round trip. This is the O(1)
	// incremental form of stats.RoundTrips over the walker's trajectory; a
	// test records the trajectories and asserts the two agree.
	for i := 0; i < n; i++ {
		switch e.tempOf[i] {
		case 0:
			if e.dir[i] == -1 {
				e.roundTrips++
			}
			e.dir[i] = +1
		case n - 1:
			if e.dir[i] == +1 {
				e.dir[i] = -1
			}
		}
	}
}

// Round performs one full tempering round: SwapInterval sweeps on every
// replica, then one swap phase.
func (e *Ensemble) Round() {
	e.SweepReplicas(e.cfg.SwapInterval)
	e.AttemptSwaps()
}

// RunRounds performs n rounds without measuring (burn-in).
func (e *Ensemble) RunRounds(n int) {
	for i := 0; i < n; i++ {
		e.Round()
	}
}

// Measure records one sample per temperature slot from whichever replica
// currently holds it.
func (e *Ensemble) Measure() {
	ms, es := e.batch.Magnetizations(), e.batch.Energies()
	for t := range e.betas {
		e.ms[t] = append(e.ms[t], ms[e.slot[t]])
		e.energySum[t] += es[e.slot[t]]
	}
}

// Sample performs n rounds, measuring after each one.
func (e *Ensemble) Sample(n int) {
	for i := 0; i < n; i++ {
		e.Round()
		e.Measure()
	}
}

// SwapCounts returns the interconnect counters of the exchange layer alone:
// the energy messages of every attempted swap (perf.ExchangeTraffic
// reproduces them analytically — asserted by tests).
func (e *Ensemble) SwapCounts() metrics.Counts { return e.swapComm }

// Counts aggregates the work counters of every replica plus the exchange
// layer's swap traffic.
func (e *Ensemble) Counts() metrics.Counts {
	total := e.swapComm
	total.Add(e.batch.Counts())
	return total
}

// ReplicaReport is the per-temperature row of a tempering report.
type ReplicaReport struct {
	// Temperature is the slot's ladder temperature.
	Temperature float64
	// AbsMagnetization is the sample mean of |m|, with a binned standard
	// error that accounts for autocorrelation.
	AbsMagnetization, AbsMagnetizationErr float64
	// Binder is the Binder cumulant U4 of the magnetisation samples.
	Binder float64
	// Energy is the sample mean energy per spin.
	Energy float64
	// AutocorrTime is the integrated autocorrelation time of the |m| series,
	// in measurement rounds; EffectiveSamples is Samples / AutocorrTime.
	AutocorrTime, EffectiveSamples float64
	// PairAttempts / PairAccepts count the swaps attempted / accepted with
	// the next-higher temperature (zero for the last slot); PairAcceptance
	// is their ratio.
	PairAttempts, PairAccepts int64
	PairAcceptance            float64
	// Samples is the number of measurements behind the row.
	Samples int
}

// Report bundles the ensemble's observables.
type Report struct {
	// Replicas holds one row per temperature slot, ascending.
	Replicas []ReplicaReport
	// RoundTrips is the total number of completed walker round trips
	// (bottom -> top -> bottom of the ladder).
	RoundTrips int
	// SwapRounds, SwapAttempts and SwapAccepts aggregate the swap phases.
	SwapRounds   uint64
	SwapAttempts int64
	SwapAccepts  int64
	// Samples is the number of measurement rounds.
	Samples int
}

// Acceptance returns the overall swap-acceptance ratio.
func (r Report) Acceptance() float64 { return stats.AcceptanceRatio(r.SwapAccepts, r.SwapAttempts) }

// Report computes the observables accumulated so far.
func (e *Ensemble) Report() Report {
	rep := Report{
		Replicas:   make([]ReplicaReport, len(e.betas)),
		RoundTrips: e.roundTrips,
		SwapRounds: e.round,
	}
	for t := range e.betas {
		n := len(e.ms[t])
		abs := make([]float64, n)
		for i, m := range e.ms[t] {
			abs[i] = math.Abs(m)
		}
		rr := ReplicaReport{
			Temperature:         e.cfg.Temperatures[t],
			AbsMagnetization:    stats.Mean(abs),
			AbsMagnetizationErr: stats.BinnedError(abs, 20),
			Binder:              stats.Binder(e.ms[t]),
			AutocorrTime:        stats.IntegratedAutocorrTime(abs),
			EffectiveSamples:    stats.EffectiveSampleSize(abs),
			Samples:             n,
		}
		if n > 0 {
			// The same in-order sum over the same values stats.Mean takes.
			rr.Energy = e.energySum[t] / float64(n)
		}
		if t < len(e.pairAttempts) {
			rr.PairAttempts = e.pairAttempts[t]
			rr.PairAccepts = e.pairAccepts[t]
			rr.PairAcceptance = stats.AcceptanceRatio(e.pairAccepts[t], e.pairAttempts[t])
			rep.SwapAttempts += e.pairAttempts[t]
			rep.SwapAccepts += e.pairAccepts[t]
		}
		rep.Replicas[t] = rr
		if rr.Samples > rep.Samples {
			rep.Samples = rr.Samples
		}
	}
	return rep
}
