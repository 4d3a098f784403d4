package checkerboard

import (
	"math"
	"testing"

	"tpuising/internal/ising"
	"tpuising/internal/rng"
	"tpuising/internal/stats"
)

func TestColorCoverageAndDisjointness(t *testing.T) {
	// One black update plus one white update must touch every site exactly
	// once: at infinite temperature (beta=0) every proposal is accepted
	// (exp(0)=1 > u), so a full sweep flips every spin exactly once.
	l := ising.NewLattice(6, 8)
	sk := rng.NewSiteKeyed(1)
	Sweep(l, 0.0001, sk, 0) // beta ~ 0: acceptance ~ 1 for every site
	for r := 0; r < l.Rows; r++ {
		for c := 0; c < l.Cols; c++ {
			if l.At(r, c) != -1 {
				t.Fatalf("site (%d,%d) not flipped exactly once", r, c)
			}
		}
	}
}

func TestColorString(t *testing.T) {
	if Black.String() != "black" || White.String() != "white" || Black.Parity() != 0 || White.Parity() != 1 {
		t.Error("colour labels")
	}
}

func TestUpdateColorOnlyTouchesThatColor(t *testing.T) {
	l := ising.NewRandomLattice(8, 8, rng.New(2))
	before := l.Clone()
	UpdateColor(l, Black, 0.0001, rng.NewSiteKeyed(3), 0, 0, 0)
	for r := 0; r < l.Rows; r++ {
		for c := 0; c < l.Cols; c++ {
			changed := l.At(r, c) != before.At(r, c)
			isBlack := (r+c)%2 == 0
			if changed && !isBlack {
				t.Fatalf("white site (%d,%d) changed during black update", r, c)
			}
			if !changed && isBlack {
				t.Fatalf("black site (%d,%d) not flipped at beta~0", r, c)
			}
		}
	}
}

func TestSamplerColdPhase(t *testing.T) {
	l := ising.NewLattice(32, 32)
	s := NewSampler(l, 1.5, 4)
	s.Run(300)
	if m := math.Abs(l.Magnetization()); m < 0.9 {
		t.Errorf("|m|(T=1.5) = %v", m)
	}
	if s.Step() != 600 {
		t.Errorf("step counter = %d, want 600", s.Step())
	}
}

func TestSamplerHotPhase(t *testing.T) {
	l := ising.NewLattice(32, 32)
	s := NewSampler(l, 6.0, 5)
	s.Run(200)
	ms := make([]float64, 0, 200)
	for i := 0; i < 200; i++ {
		s.Run(1)
		ms = append(ms, l.Magnetization())
	}
	if m := stats.Mean(ms); math.Abs(m) > 0.1 {
		t.Errorf("<m>(T=6) = %v", m)
	}
}

func TestAgreesWithExactStatistics(t *testing.T) {
	// The checkerboard chain samples the Boltzmann distribution; at T=2.0 a
	// 32x32 lattice sits well below T_c with a short correlation length, so
	// its estimates of <|m|> and <E> must match the infinite-lattice exact
	// results (Onsager/Yang magnetization, Onsager energy).
	const temperature = 2.0
	const burn, samples = 400, 600

	lc := ising.NewLattice(32, 32)
	cs := NewSampler(lc, temperature, 6)
	cs.Run(burn)
	var cbM, cbE []float64
	for i := 0; i < samples; i++ {
		cs.Run(1)
		cbM = append(cbM, math.Abs(lc.Magnetization()))
		cbE = append(cbE, lc.Energy())
	}

	if want := ising.OnsagerMagnetization(temperature); math.Abs(stats.Mean(cbM)-want) > 0.02 {
		t.Errorf("<|m|> = %v, exact %v", stats.Mean(cbM), want)
	}
	if want := ising.ExactEnergyPerSpin(temperature); math.Abs(stats.Mean(cbE)-want) > 0.03 {
		t.Errorf("<E> = %v, exact %v", stats.Mean(cbE), want)
	}
}

func TestMatchesOnsagerBelowTc(t *testing.T) {
	l := ising.NewLattice(48, 48)
	s := NewSampler(l, 1.9, 8)
	s.Run(400)
	var sum float64
	const samples = 400
	for i := 0; i < samples; i++ {
		s.Run(1)
		sum += math.Abs(l.Magnetization())
	}
	got := sum / samples
	want := ising.OnsagerMagnetization(1.9)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("<|m|>(1.9) = %v, Onsager %v", got, want)
	}
}

func TestBoltzmannMomentsExact4x4(t *testing.T) {
	// Exact check of the stationary distribution on a 4x4 torus: enumerate
	// all 2^16 states, compute the Boltzmann expectations of |m|, E, m^2 and
	// m^4, and compare against long-chain averages of the checkerboard
	// sampler. (A 2x2 torus is deliberately avoided: with doubled bonds the
	// zero-energy-difference moves become deterministic and the chain is not
	// ergodic on that degenerate geometry.)
	const temperature = 3.0
	beta := ising.Beta(temperature)
	const n = 4
	l := ising.NewLattice(n, n)

	var z, exAbsM, exE, exM2, exM4 float64
	for state := 0; state < 1<<(n*n); state++ {
		setState(l, state, n)
		e := l.Energy() * float64(l.N())
		w := math.Exp(-beta * e)
		m := l.Magnetization()
		z += w
		exAbsM += w * math.Abs(m)
		exE += w * l.Energy()
		exM2 += w * m * m
		exM4 += w * m * m * m * m
	}
	exAbsM /= z
	exE /= z
	exM2 /= z
	exM4 /= z

	setState(l, 0, n)
	s := NewSampler(l, temperature, 9)
	s.Run(2000)
	var gotAbsM, gotE, gotM2, gotM4 float64
	const samples = 300000
	for i := 0; i < samples; i++ {
		s.Sweep()
		m := l.Magnetization()
		gotAbsM += math.Abs(m)
		gotE += l.Energy()
		gotM2 += m * m
		gotM4 += m * m * m * m
	}
	gotAbsM /= samples
	gotE /= samples
	gotM2 /= samples
	gotM4 /= samples

	if math.Abs(gotAbsM-exAbsM) > 0.01 {
		t.Errorf("<|m|> = %.4f, exact %.4f", gotAbsM, exAbsM)
	}
	if math.Abs(gotE-exE) > 0.015 {
		t.Errorf("<E> = %.4f, exact %.4f", gotE, exE)
	}
	if math.Abs(gotM2-exM2) > 0.01 {
		t.Errorf("<m^2> = %.4f, exact %.4f", gotM2, exM2)
	}
	if math.Abs(gotM4-exM4) > 0.01 {
		t.Errorf("<m^4> = %.4f, exact %.4f", gotM4, exM4)
	}
}

func setState(l *ising.Lattice, bits, n int) {
	for i := 0; i < n*n; i++ {
		s := int8(1)
		if bits&(1<<i) != 0 {
			s = -1
		}
		l.Set(i/n, i%n, s)
	}
}

func TestParallelSweepIdenticalToSerial(t *testing.T) {
	// The parallel sweep uses the same site-keyed uniforms, so the chain must
	// be bit-identical to the serial sweep regardless of the worker count.
	serial := ising.NewRandomLattice(24, 24, rng.New(10))
	parallel := serial.Clone()
	sk1 := rng.NewSiteKeyed(77)
	sk2 := rng.NewSiteKeyed(77)
	var s1, s2 uint64
	for i := 0; i < 20; i++ {
		s1 = Sweep(serial, 0.44, sk1, s1)
		s2 = ParallelSweep(parallel, 0.44, sk2, s2, 5)
	}
	if !serial.Equal(parallel) {
		t.Fatal("parallel sweep diverged from serial sweep")
	}
	if s1 != s2 {
		t.Fatal("step counters diverged")
	}
}

func TestParallelSweepWorkerEdgeCases(t *testing.T) {
	l := ising.NewRandomLattice(8, 8, rng.New(11))
	ref := l.Clone()
	skA, skB := rng.NewSiteKeyed(5), rng.NewSiteKeyed(5)
	Sweep(ref, 0.3, skA, 0)
	// More workers than rows, and workers <= 0 (auto).
	ParallelSweep(l, 0.3, skB, 0, 100)
	if !l.Equal(ref) {
		t.Fatal("many-workers parallel sweep wrong")
	}
	l2 := ising.NewRandomLattice(8, 8, rng.New(11))
	skC := rng.NewSiteKeyed(5)
	ParallelSweep(l2, 0.3, skC, 0, 0)
	if !l2.Equal(ref) {
		t.Fatal("auto-workers parallel sweep wrong")
	}
}

func TestDecompositionOffsetsChangeStream(t *testing.T) {
	// Updating with a non-zero global offset must use different random
	// numbers (it is a different part of the global lattice).
	a := ising.NewRandomLattice(8, 8, rng.New(12))
	b := a.Clone()
	sk := rng.NewSiteKeyed(13)
	UpdateColor(a, Black, 0.44, sk, 0, 0, 0)
	UpdateColor(b, Black, 0.44, sk, 0, 8, 0)
	if a.Equal(b) {
		t.Fatal("offset should change the consumed random stream")
	}
}

func BenchmarkCheckerboardSweep256(b *testing.B) {
	l := ising.NewLattice(256, 256)
	s := NewSampler(l, 2.269, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sweep()
	}
	b.ReportMetric(float64(l.N())/1e6, "Mspins/sweep")
}

func BenchmarkParallelSweep1024(b *testing.B) {
	l := ising.NewLattice(1024, 1024)
	sk := rng.NewSiteKeyed(1)
	var step uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step = ParallelSweep(l, 0.4407, sk, step, 0)
	}
}
