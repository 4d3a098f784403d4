package sweep

import (
	"math"
	"testing"

	"tpuising/internal/ising"
	"tpuising/internal/ising/checkerboard"
	"tpuising/internal/ising/sharded"
	"tpuising/internal/tempering"
)

// cpuChain adapts the CPU checkerboard sampler to the Chain interface.
type cpuChain struct {
	s *checkerboard.Sampler
}

func (c cpuChain) Sweep()                 { c.s.Sweep() }
func (c cpuChain) Magnetization() float64 { return c.s.Lattice.Magnetization() }
func (c cpuChain) Energy() float64        { return c.s.Lattice.Energy() }

func newCPUChain(l int, seed uint64) func(float64) Chain {
	return func(temperature float64) Chain {
		return cpuChain{checkerboard.NewSampler(ising.NewLattice(l, l), temperature, seed)}
	}
}

func TestTemperatureGrid(t *testing.T) {
	g := TemperatureGrid(1, 3, 5)
	want := []float64{1, 1.5, 2, 2.5, 3}
	if len(g) != len(want) {
		t.Fatalf("len = %d", len(g))
	}
	for i := range g {
		if math.Abs(g[i]-want[i]) > 1e-12 {
			t.Fatalf("grid[%d] = %v, want %v", i, g[i], want[i])
		}
	}
	if got := TemperatureGrid(2, 4, 1); len(got) != 1 || got[0] != 2 {
		t.Fatalf("single-point grid = %v", got)
	}
	if TemperatureGrid(1, 2, 0) != nil {
		t.Fatal("empty grid should be nil")
	}
}

func TestCriticalWindowBracketsTc(t *testing.T) {
	g := CriticalWindow(0.2, 11)
	tc := ising.CriticalTemperature()
	if g[0] >= tc || g[len(g)-1] <= tc {
		t.Fatalf("window [%v, %v] does not bracket Tc=%v", g[0], g[len(g)-1], tc)
	}
	if math.Abs(g[5]-tc) > 1e-9 {
		t.Fatalf("middle of an odd window should be Tc, got %v", g[5])
	}
}

func TestRunPhaseTransitionShape(t *testing.T) {
	// A small lattice swept across Tc must show ordered behaviour below and
	// disordered behaviour above, with the Binder parameter decreasing.
	tc := ising.CriticalTemperature()
	cfg := Config{
		Temperatures: []float64{0.6 * tc, 1.6 * tc},
		BurnIn:       300,
		Samples:      200,
	}
	points := Run(cfg, newCPUChain(16, 11))
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	low, high := points[0], points[1]
	if low.AbsMagnetization < 0.9 {
		t.Fatalf("|m| = %.3f at T=0.6Tc, want near 1", low.AbsMagnetization)
	}
	if high.AbsMagnetization > 0.35 {
		t.Fatalf("|m| = %.3f at T=1.6Tc, want small", high.AbsMagnetization)
	}
	if low.Binder < high.Binder {
		t.Fatalf("Binder should decrease across Tc: %.3f -> %.3f", low.Binder, high.Binder)
	}
	if low.Binder < 0.55 || low.Binder > 0.67 {
		t.Fatalf("ordered-phase Binder %.3f, want near 2/3", low.Binder)
	}
	if low.Energy >= high.Energy {
		t.Fatalf("energy should increase with temperature: %.3f -> %.3f", low.Energy, high.Energy)
	}
	if low.Samples != 200 || low.AbsMagnetizationErr <= 0 {
		t.Fatal("sample bookkeeping wrong")
	}
}

func TestRunMatchesOnsagerBelowTc(t *testing.T) {
	// Deep in the ordered phase the measured magnetisation must match the
	// exact Onsager spontaneous magnetisation closely even on a small lattice.
	temp := 1.5
	cfg := Config{Temperatures: []float64{temp}, BurnIn: 400, Samples: 300}
	p := Run(cfg, newCPUChain(24, 3))[0]
	exact := ising.OnsagerMagnetization(temp)
	if math.Abs(p.AbsMagnetization-exact) > 0.02 {
		t.Fatalf("|m|=%.4f at T=%.2f, Onsager gives %.4f", p.AbsMagnetization, temp, exact)
	}
}

func TestRunParallelEqualsSerial(t *testing.T) {
	temps := CriticalWindow(0.3, 4)
	run := func(parallel int) []Point {
		return Run(Config{
			Temperatures: temps, BurnIn: 20, Samples: 30, Parallel: parallel,
		}, newCPUChain(8, 7))
	}
	serial := run(1)
	parallel := run(4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("point %d differs between serial and parallel runs:\n%+v\n%+v",
				i, serial[i], parallel[i])
		}
	}
}

func TestRunDeterministicAndOrderPreserving(t *testing.T) {
	temps := []float64{3.0, 1.5, 2.2}
	a := Run(Config{Temperatures: temps, BurnIn: 10, Samples: 20}, newCPUChain(8, 5))
	b := Run(Config{Temperatures: temps, BurnIn: 10, Samples: 20}, newCPUChain(8, 5))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seeds should give identical sweeps")
		}
		if a[i].Temperature != temps[i] {
			t.Fatal("points must preserve the input temperature order")
		}
	}
}

func TestRunEdgeCases(t *testing.T) {
	if out := Run(Config{Samples: 5}, newCPUChain(8, 1)); out != nil {
		t.Fatal("no temperatures should give nil")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero samples")
		}
	}()
	Run(Config{Temperatures: []float64{2.0}}, newCPUChain(8, 1))
}

// TestRunBackendsSharded drives the mesh-sharded multispin engine through
// RunBackends across the phase transition: the sweep layer must see it as
// just another Backend, and its physics must order below Tc and disorder
// above (each temperature runs its own independent pod).
func TestRunBackendsSharded(t *testing.T) {
	points := RunBackends(Config{
		Temperatures: []float64{1.8, 3.6},
		BurnIn:       150,
		Samples:      150,
	}, func(temperature float64) ising.Backend {
		e, err := sharded.New(sharded.Config{
			Rows: 64, Cols: 64, GridR: 2, GridC: 1, Temperature: temperature, Seed: 9,
		})
		if err != nil {
			panic(err)
		}
		return e
	})
	if points[0].AbsMagnetization < 0.9 {
		t.Errorf("sharded |m| at T=1.8 = %.3f, want ordered (> 0.9)", points[0].AbsMagnetization)
	}
	if points[1].AbsMagnetization > 0.2 {
		t.Errorf("sharded |m| at T=3.6 = %.3f, want disordered (< 0.2)", points[1].AbsMagnetization)
	}
	if points[0].Energy >= points[1].Energy {
		t.Errorf("energy should rise with temperature: %.3f >= %.3f", points[0].Energy, points[1].Energy)
	}
}

func TestBinderCrossingNearTc(t *testing.T) {
	// The Binder curves of two lattice sizes must cross close to the exact
	// critical temperature — the paper's Figure 4 correctness check.
	tc := ising.CriticalTemperature()
	temps := TemperatureGrid(0.85*tc, 1.15*tc, 7)
	cfg := Config{Temperatures: temps, BurnIn: 400, Samples: 400}
	small := Run(cfg, newCPUChain(8, 21))
	large := Run(cfg, newCPUChain(24, 22))
	cross, err := BinderCrossing(small, large)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cross-tc)/tc > 0.06 {
		t.Fatalf("Binder crossing at %.4f, exact Tc %.4f (%.1f%% off)",
			cross, tc, 100*math.Abs(cross-tc)/tc)
	}
}

func TestBinderCrossingErrors(t *testing.T) {
	a := []Point{{Temperature: 1, Binder: 0.6}, {Temperature: 2, Binder: 0.5}}
	if _, err := BinderCrossing(a, a[:1]); err == nil {
		t.Fatal("length mismatch should error")
	}
	b := []Point{{Temperature: 1, Binder: 0.5}, {Temperature: 3, Binder: 0.4}}
	if _, err := BinderCrossing(a, b); err == nil {
		t.Fatal("grid mismatch should error")
	}
	c := []Point{{Temperature: 1, Binder: 0.5}, {Temperature: 2, Binder: 0.4}}
	if _, err := BinderCrossing(a, c); err == nil {
		t.Fatal("non-crossing curves should error")
	}
	// An exact touch at a grid point is a crossing.
	d := []Point{{Temperature: 1, Binder: 0.6}, {Temperature: 2, Binder: 0.55}}
	e := []Point{{Temperature: 1, Binder: 0.6}, {Temperature: 2, Binder: 0.5}}
	if cross, err := BinderCrossing(d, e); err != nil || cross != 1 {
		t.Fatalf("touching curves: cross=%v err=%v", cross, err)
	}
}

// TestReplicaSeedDistinct guards the per-slot seed derivation the CLI and
// harness share.
func TestReplicaSeedDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for slot := 0; slot < 64; slot++ {
		s := tempering.ReplicaSeed(9, slot)
		if seen[s] {
			t.Fatalf("slot %d reuses seed %d", slot, s)
		}
		seen[s] = true
	}
}
