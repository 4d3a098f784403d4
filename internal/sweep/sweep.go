package sweep

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"tpuising/internal/ising"
	"tpuising/internal/stats"
)

// Chain is one Markov chain at a fixed temperature. All the samplers in this
// repository (the TPU simulators, the CPU checkerboard baseline, the
// GPU-style baseline and the multispin engine) satisfy it;
// every ising.Backend is a Chain (and an EnergyChain).
type Chain interface {
	// Sweep advances the chain by one whole-lattice update.
	Sweep()
	// Magnetization returns the current magnetisation per spin.
	Magnetization() float64
}

// EnergyChain is optionally implemented by chains that can also report the
// energy per spin.
type EnergyChain interface {
	Chain
	Energy() float64
}

// Config describes one temperature sweep.
type Config struct {
	// Temperatures is the grid of temperatures (in units of J/kB) to sample.
	Temperatures []float64
	// BurnIn is the number of sweeps discarded before measuring.
	BurnIn int
	// Samples is the number of measurements taken per temperature.
	Samples int
	// Interval is the number of sweeps between successive measurements
	// (defaults to 1).
	Interval int
	// Parallel is the number of temperatures simulated concurrently
	// (defaults to GOMAXPROCS). Each temperature runs its own independent
	// chain, so parallelism does not change any result.
	Parallel int
}

func (c Config) withDefaults() Config {
	out := c
	if out.Interval <= 0 {
		out.Interval = 1
	}
	if out.Parallel <= 0 {
		out.Parallel = runtime.GOMAXPROCS(0)
	}
	return out
}

// Point is the measurement at one temperature.
type Point struct {
	// Temperature is the simulated temperature.
	Temperature float64
	// AbsMagnetization is the sample mean of |m|.
	AbsMagnetization float64
	// AbsMagnetizationErr is the standard error of |m|.
	AbsMagnetizationErr float64
	// Binder is the Binder parameter U4 = 1 - <m^4>/(3<m^2>^2).
	Binder float64
	// Energy is the sample mean energy per spin (0 if the chain cannot
	// report it).
	Energy float64
	// Samples is the number of measurements behind the point.
	Samples int
}

// Run sweeps the temperature grid. newChain must return an independent chain
// equilibrated-from-scratch for the given temperature; it is called once per
// temperature, possibly from different goroutines.
func Run(cfg Config, newChain func(temperature float64) Chain) []Point {
	c := cfg.withDefaults()
	if len(c.Temperatures) == 0 {
		return nil
	}
	if c.Samples <= 0 {
		panic("sweep: Samples must be positive")
	}
	points := make([]Point, len(c.Temperatures))
	sem := make(chan struct{}, c.Parallel)
	var wg sync.WaitGroup
	for i, temp := range c.Temperatures {
		wg.Add(1)
		go func(i int, temp float64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			points[i] = measure(c, temp, newChain(temp))
		}(i, temp)
	}
	wg.Wait()
	return points
}

// RunBackends is Run for engines selected through the ising.Backend
// interface (every Backend reports energy, so the points always carry the
// mean energy per spin). newBackend must return an independent engine for
// the given temperature; it is called once per temperature, possibly from
// different goroutines.
func RunBackends(cfg Config, newBackend func(temperature float64) ising.Backend) []Point {
	return Run(cfg, func(temperature float64) Chain { return newBackend(temperature) })
}

// measure runs one chain and collects its observables.
func measure(c Config, temp float64, chain Chain) Point {
	for i := 0; i < c.BurnIn; i++ {
		chain.Sweep()
	}
	ms := make([]float64, 0, c.Samples)
	abs := make([]float64, 0, c.Samples)
	var energy float64
	energyChain, hasEnergy := chain.(EnergyChain)
	for i := 0; i < c.Samples; i++ {
		for j := 0; j < c.Interval; j++ {
			chain.Sweep()
		}
		m := chain.Magnetization()
		ms = append(ms, m)
		if m < 0 {
			abs = append(abs, -m)
		} else {
			abs = append(abs, m)
		}
		if hasEnergy {
			energy += energyChain.Energy()
		}
	}
	p := Point{
		Temperature:         temp,
		AbsMagnetization:    stats.Mean(abs),
		AbsMagnetizationErr: stats.StdErr(abs),
		Binder:              stats.Binder(ms),
		Samples:             c.Samples,
	}
	if hasEnergy {
		p.Energy = energy / float64(c.Samples)
	}
	return p
}

// TemperatureGrid returns n evenly spaced temperatures in [lo, hi].
func TemperatureGrid(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}

// CriticalWindow returns a grid of n temperatures spanning the given
// half-width around the exact critical temperature, expressed as a fraction
// of Tc (the x-axis of Figures 4 and 7 is T/Tc in [0.5, 1.5]).
func CriticalWindow(halfWidthFraction float64, n int) []float64 {
	tc := ising.CriticalTemperature()
	return TemperatureGrid(tc*(1-halfWidthFraction), tc*(1+halfWidthFraction), n)
}

// BinderCrossing estimates the temperature at which the Binder-parameter
// curves of two lattice sizes cross, by scanning for a sign change of their
// difference and interpolating linearly. Both point sets must cover the same
// (sorted) temperature grid. It returns an error when the curves do not
// cross inside the grid.
func BinderCrossing(a, b []Point) (float64, error) {
	if len(a) != len(b) || len(a) < 2 {
		return 0, fmt.Errorf("sweep: need two equal-length curves, got %d and %d points", len(a), len(b))
	}
	as := append([]Point(nil), a...)
	bs := append([]Point(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i].Temperature < as[j].Temperature })
	sort.Slice(bs, func(i, j int) bool { return bs[i].Temperature < bs[j].Temperature })
	prev := as[0].Binder - bs[0].Binder
	for i := 1; i < len(as); i++ {
		if as[i].Temperature != bs[i].Temperature {
			return 0, fmt.Errorf("sweep: temperature grids differ at index %d", i)
		}
		cur := as[i].Binder - bs[i].Binder
		if prev == 0 {
			return as[i-1].Temperature, nil
		}
		if (prev < 0) != (cur < 0) {
			// Linear interpolation of the zero of the difference.
			t0, t1 := as[i-1].Temperature, as[i].Temperature
			frac := prev / (prev - cur)
			return t0 + frac*(t1-t0), nil
		}
		prev = cur
	}
	return 0, fmt.Errorf("sweep: Binder curves do not cross within the grid")
}
