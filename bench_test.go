// Package tpuising's repository-level benchmarks regenerate every table and
// figure of the paper's evaluation section (via the internal/harness package)
// and additionally time the real execution of each update kernel on the host,
// so `go test -bench=. -benchmem` doubles as the reproduction harness and as
// a performance regression suite for the simulator itself.
//
// The custom metrics reported via b.ReportMetric carry the paper's units:
// model_flips/ns for modelled TPU throughput, host_flips/ns for the actual
// simulator throughput on the machine running the benchmark, and model_ms for
// modelled step times.
package tpuising

import (
	"strconv"
	"testing"

	"tpuising/internal/harness"
	"tpuising/internal/ising"
	"tpuising/internal/ising/backend"
	"tpuising/internal/ising/checkerboard"
	"tpuising/internal/ising/ensemble"
	"tpuising/internal/ising/gpusim"
	"tpuising/internal/ising/tpu"
	"tpuising/internal/perf"
	"tpuising/internal/rng"
	"tpuising/internal/sweep"
	"tpuising/internal/tempering"
	"tpuising/internal/tensor"
)

// reportCell parses a numeric table cell and attaches it to the benchmark as
// a custom metric.
func reportCell(b *testing.B, tab *harness.Table, row, col int, metric string) {
	b.Helper()
	v, err := strconv.ParseFloat(tab.Cell(row, col), 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) of %s is not numeric: %v", row, col, tab.ID, err)
	}
	b.ReportMetric(v, metric)
}

// --- Table and figure regeneration benchmarks -------------------------------

// BenchmarkTable1SingleCore regenerates Table 1 (single-core throughput and
// energy vs lattice size) and reports the saturated single-core throughput.
func BenchmarkTable1SingleCore(b *testing.B) {
	m := perf.DefaultModel()
	var tab *harness.Table
	for i := 0; i < b.N; i++ {
		tab = harness.Table1(m)
	}
	reportCell(b, tab, 5, 1, "model_flips/ns")
	reportCell(b, tab, 5, 2, "model_nJ/flip")
}

// BenchmarkTable2WeakScaling regenerates Table 2 (weak scaling to 512 cores)
// and reports the 512-core throughput and step time.
func BenchmarkTable2WeakScaling(b *testing.B) {
	m := perf.DefaultModel()
	var tab *harness.Table
	for i := 0; i < b.N; i++ {
		tab = harness.Table2(m)
	}
	reportCell(b, tab, 4, 3, "model_flips/ns")
	reportCell(b, tab, 4, 2, "model_step_ms")
}

// BenchmarkTable3Breakdown regenerates Table 3 (step-time breakdown) and
// reports the MXU share at 512 cores.
func BenchmarkTable3Breakdown(b *testing.B) {
	m := perf.DefaultModel()
	var tab *harness.Table
	for i := 0; i < b.N; i++ {
		tab = harness.Table3(m)
	}
	reportCell(b, tab, 4, 1, "model_mxu_%")
}

// BenchmarkTable4CommTime regenerates Table 4 (step and collective-permute
// time vs per-core size and pod size) and reports the largest configuration's
// collective-permute time.
func BenchmarkTable4CommTime(b *testing.B) {
	m := perf.DefaultModel()
	var tab *harness.Table
	for i := 0; i < b.N; i++ {
		tab = harness.Table4(m)
	}
	reportCell(b, tab, 6, 3, "model_comm_ms")
}

// BenchmarkTable5Roofline regenerates Table 5 (roofline and peak utilisation)
// and reports the achieved TFLOPS.
func BenchmarkTable5Roofline(b *testing.B) {
	m := perf.DefaultModel()
	var tab *harness.Table
	for i := 0; i < b.N; i++ {
		tab = harness.Table5(m)
	}
	reportCell(b, tab, 0, 1, "model_TFLOPS")
	reportCell(b, tab, 0, 2, "model_roofline_%")
}

// BenchmarkTable6WeakScalingConv regenerates Table 6 (weak scaling of the
// conv-based implementation) and reports the largest dense configuration.
func BenchmarkTable6WeakScalingConv(b *testing.B) {
	m := perf.DefaultModel()
	var tab *harness.Table
	for i := 0; i < b.N; i++ {
		tab = harness.Table6(m)
	}
	reportCell(b, tab, 19, 4, "model_flips/ns")
}

// BenchmarkTable7StrongScaling regenerates Table 7 (strong scaling of the
// conv-based implementation) and reports the 2048-core throughput.
func BenchmarkTable7StrongScaling(b *testing.B) {
	m := perf.DefaultModel()
	var tab *harness.Table
	for i := 0; i < b.N; i++ {
		tab = harness.Table7(m)
	}
	reportCell(b, tab, 8, 3, "model_flips/ns")
	reportCell(b, tab, 8, 4, "model_efficiency")
}

// BenchmarkAblationAlgorithms regenerates the update-kernel ablation (the
// Algorithm 1 vs Algorithm 2 vs conv comparison of Section 3 / the appendix)
// and reports the modelled Algorithm-2-over-Algorithm-1 speedup.
func BenchmarkAblationAlgorithms(b *testing.B) {
	m := perf.DefaultModel()
	var tab *harness.Table
	for i := 0; i < b.N; i++ {
		tab = harness.AlgorithmAblation(m, 896, 448)
	}
	naive, err1 := strconv.ParseFloat(tab.Cell(0, 2), 64)
	optim, err2 := strconv.ParseFloat(tab.Cell(2, 2), 64)
	if err1 != nil || err2 != nil {
		b.Fatal("non-numeric ablation cells")
	}
	b.ReportMetric(naive/optim, "model_alg2_speedup")
}

// BenchmarkFigure8Comparison regenerates the cross-system throughput
// comparison of Figure 8.
func BenchmarkFigure8Comparison(b *testing.B) {
	m := perf.DefaultModel()
	var tab *harness.Table
	for i := 0; i < b.N; i++ {
		tab = harness.Figure8(m)
	}
	if len(tab.Rows) == 0 {
		b.Fatal("empty figure")
	}
}

// BenchmarkFigure9StrongScalingCurve regenerates Figure 9.
func BenchmarkFigure9StrongScalingCurve(b *testing.B) {
	m := perf.DefaultModel()
	var tab *harness.Table
	for i := 0; i < b.N; i++ {
		tab = harness.Figure9(m)
	}
	reportCell(b, tab, 8, 3, "model_efficiency")
}

// BenchmarkFigure4Point runs one real Monte-Carlo measurement point of the
// Figure 4 correctness study (one lattice size, one temperature, both
// precisions) per iteration. The full figure is generated by cmd/correctness.
func BenchmarkFigure4Point(b *testing.B) {
	cfg := harness.CorrectnessConfig{
		Sizes:        []int{32},
		TileSize:     8,
		Temperatures: []float64{ising.CriticalTemperature()},
		BurnIn:       100,
		Samples:      100,
		Seed:         1,
	}
	for i := 0; i < b.N; i++ {
		tab := harness.Figure4(cfg)
		if len(tab.Rows) != 2 {
			b.Fatal("unexpected figure shape")
		}
	}
}

// BenchmarkFigure7Point is the conv-based counterpart of BenchmarkFigure4Point.
func BenchmarkFigure7Point(b *testing.B) {
	cfg := harness.CorrectnessConfig{
		Sizes:        []int{32},
		TileSize:     8,
		Temperatures: []float64{ising.CriticalTemperature()},
		BurnIn:       100,
		Samples:      100,
		Seed:         1,
	}
	for i := 0; i < b.N; i++ {
		tab := harness.Figure7(cfg)
		if len(tab.Rows) != 2 {
			b.Fatal("unexpected figure shape")
		}
	}
}

// --- Real-execution benchmarks of the simulator itself ----------------------

// benchSweep times real sweeps of one update kernel on the host and reports
// the host-level throughput in flips/ns.
func benchSweep(b *testing.B, alg tpu.Algorithm, size, tile int, dtype tensor.DType) {
	sim := tpu.NewSimulator(tpu.Config{
		Rows: size, Cols: size, Temperature: 2.5,
		TileSize: tile, DType: dtype, Algorithm: alg, Seed: 1,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Sweep()
	}
	b.StopTimer()
	spins := float64(size) * float64(size) * float64(b.N)
	b.ReportMetric(spins/float64(b.Elapsed().Nanoseconds()), "host_flips/ns")
}

func BenchmarkSweepOptim256(b *testing.B) { benchSweep(b, tpu.AlgOptim, 256, 32, tensor.BFloat16) }
func BenchmarkSweepOptim512(b *testing.B) { benchSweep(b, tpu.AlgOptim, 512, 64, tensor.BFloat16) }
func BenchmarkSweepOptimF32(b *testing.B) { benchSweep(b, tpu.AlgOptim, 256, 32, tensor.Float32) }
func BenchmarkSweepNaive256(b *testing.B) { benchSweep(b, tpu.AlgNaive, 256, 32, tensor.BFloat16) }
func BenchmarkSweepConv256(b *testing.B)  { benchSweep(b, tpu.AlgConv, 256, 0, tensor.BFloat16) }

// BenchmarkSweepDistributed2x2 times real sweeps of the 4-core distributed
// simulator, including the goroutine-level halo exchange.
func BenchmarkSweepDistributed2x2(b *testing.B) {
	d := tpu.NewDistSimulator(tpu.DistConfig{
		PodX: 2, PodY: 2, CoreRows: 128, CoreCols: 128,
		Temperature: 2.5, TileSize: 32, DType: tensor.BFloat16, Seed: 1,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Sweep()
	}
	b.StopTimer()
	spins := float64(256) * 256 * float64(b.N)
	b.ReportMetric(spins/float64(b.Elapsed().Nanoseconds()), "host_flips/ns")
}

// BenchmarkSweepCPUCheckerboard times the plain CPU checkerboard baseline.
func BenchmarkSweepCPUCheckerboard256(b *testing.B) {
	l := ising.NewLattice(256, 256)
	sk := rng.NewSiteKeyed(1)
	beta := ising.Beta(2.5)
	var step uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step = checkerboard.Sweep(l, beta, sk, step)
	}
	b.StopTimer()
	spins := float64(256) * 256 * float64(b.N)
	b.ReportMetric(spins/float64(b.Elapsed().Nanoseconds()), "host_flips/ns")
}

// BenchmarkSweepGPUStyleParallel times the multi-threaded GPU-style baseline.
func BenchmarkSweepGPUStyleParallel256(b *testing.B) {
	s := gpusim.NewSampler(ising.NewLattice(256, 256), 2.5, 1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sweep()
	}
	b.StopTimer()
	spins := float64(256) * 256 * float64(b.N)
	b.ReportMetric(spins/float64(b.Elapsed().Nanoseconds()), "host_flips/ns")
}

// --- Host-engine benchmarks through the Backend interface -------------------

// benchHost times real sweeps of one host engine selected through the
// backend factory and reports the measured throughput in host_flips/ns.
// These are the numbers to compare against each other (multispin vs the
// scalar baselines); the model_flips/ns metrics above are modelled TPU
// throughput and live on a different axis.
func benchHost(b *testing.B, name string, size int) {
	benchBackend(b, name, backend.Config{Rows: size, Cols: size, Temperature: 2.5, Seed: 1})
}

// benchBackend builds one engine from the factory, times its sweeps and
// reports the measured throughput in host_flips/ns.
func benchBackend(b *testing.B, name string, cfg backend.Config) {
	eng, err := backend.New(name, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Sweep()
	}
	b.StopTimer()
	spins := float64(cfg.Rows) * float64(cfg.Cols) * float64(b.N)
	b.ReportMetric(spins/float64(b.Elapsed().Nanoseconds()), "host_flips/ns")
}

// Serial and parallel scalar baselines.
func BenchmarkHostSerial256(b *testing.B)    { benchHost(b, "checkerboard", 256) }
func BenchmarkHostParallel256(b *testing.B)  { benchHost(b, "gpusim", 256) }
func BenchmarkHostParallel1024(b *testing.B) { benchHost(b, "gpusim", 1024) }
func BenchmarkHostParallel4096(b *testing.B) { benchHost(b, "gpusim", 4096) }

// Bit-packed multispin engine from 1k to 16k lattices; the 1024 and 4096
// sizes pair with the gpusim benchmarks above for the >=10x speedup check.
func BenchmarkHostMultispin1024(b *testing.B)  { benchHost(b, "multispin", 1024) }
func BenchmarkHostMultispin4096(b *testing.B)  { benchHost(b, "multispin", 4096) }
func BenchmarkHostMultispin16384(b *testing.B) { benchHost(b, "multispin", 16384) }

// Shared-random multispin variant (one Philox word per 64 columns).
func BenchmarkHostMultispinShared4096(b *testing.B) { benchHost(b, "multispin-shared", 4096) }

// benchSharded times the mesh-sharded multispin engine on a gridR x gridC
// shard grid: one goroutine per simulated mesh core, packed halo exchange
// through the interconnect fabric each half-sweep. Comparing grids at a
// fixed lattice size shows the aggregate host_flips/ns scaling with the
// shard count (and where the per-sweep exchange overhead starts to bite).
func benchSharded(b *testing.B, size, gridR, gridC int) {
	benchBackend(b, "sharded", backend.Config{
		Rows: size, Cols: size, Temperature: 2.5, Seed: 1, GridR: gridR, GridC: gridC,
	})
}

// One shard (the multispin baseline plus exchange overhead) up to 16 shards
// on the same 4096^2 lattice.
func BenchmarkSharded1x1_4096(b *testing.B) { benchSharded(b, 4096, 1, 1) }
func BenchmarkSharded1x2_4096(b *testing.B) { benchSharded(b, 4096, 1, 2) }
func BenchmarkSharded2x2_4096(b *testing.B) { benchSharded(b, 4096, 2, 2) }
func BenchmarkSharded2x4_4096(b *testing.B) { benchSharded(b, 4096, 2, 4) }
func BenchmarkSharded4x4_4096(b *testing.B) { benchSharded(b, 4096, 4, 4) }

// A 16k lattice where halo traffic is tiny relative to shard compute.
func BenchmarkSharded4x4_16384(b *testing.B) { benchSharded(b, 16384, 4, 4) }

// benchShardedEnsemble times the composed batched×sharded engine through the
// batch factory: `lanes` lane-packed chains advance on every shard of a
// gridR x gridC pod grid, halo words carrying all lanes at once. The reported
// host_flips/ns is the aggregate over all lanes — the paper's actual per-core
// workload (a full replica batch between halo exchanges), directly comparable
// with BenchmarkEnsemble64_256 (same lanes, no shards) and
// BenchmarkSharded* (same shards, one chain).
func benchShardedEnsemble(b *testing.B, size, lanes, gridR, gridC int) {
	batch, err := backend.NewBatch("sharded-ensemble", backend.Config{
		Rows: size, Cols: size, Temperature: 2.5, Seed: 1, GridR: gridR, GridC: gridC,
	}, lanes)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Sweep()
	}
	b.StopTimer()
	spins := float64(size) * float64(size) * float64(lanes) * float64(b.N)
	b.ReportMetric(spins/float64(b.Elapsed().Nanoseconds()), "host_flips/ns")
}

func BenchmarkShardedEnsemble64_1x1_256(b *testing.B) { benchShardedEnsemble(b, 256, 64, 1, 1) }
func BenchmarkShardedEnsemble64_2x2_256(b *testing.B) { benchShardedEnsemble(b, 256, 64, 2, 2) }
func BenchmarkShardedEnsemble64_2x4_512(b *testing.B) { benchShardedEnsemble(b, 512, 64, 2, 4) }

// benchTempering times one round (5 sweeps per replica + one swap phase) of
// a parallel-tempering ensemble of multispin replicas across the default
// critical window. Aggregate host_flips/ns across all replicas: comparing
// replica counts at a fixed size shows the ensemble scaling with the
// machine's cores, and comparing against BenchmarkHostMultispin* shows the
// swap phases (two 8-byte energy messages per pair) cost essentially
// nothing.
func benchTempering(b *testing.B, size, replicas int) {
	const swapInterval = 5
	temps := sweep.CriticalWindow(tempering.DefaultWindow(size*size, replicas), replicas)
	lanes, err := backend.NewLanes("multispin", backend.Config{Rows: size, Cols: size, Seed: 1}, temps)
	if err != nil {
		b.Fatal(err)
	}
	ens, err := tempering.NewBatch(tempering.Config{
		Temperatures: temps,
		SwapInterval: swapInterval,
		Seed:         1,
	}, lanes)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ens.Round()
	}
	b.StopTimer()
	spins := float64(size) * float64(size) * float64(replicas) * float64(swapInterval) * float64(b.N)
	b.ReportMetric(spins/float64(b.Elapsed().Nanoseconds()), "host_flips/ns")
}

func BenchmarkTempering2_1024(b *testing.B) { benchTempering(b, 1024, 2) }
func BenchmarkTempering4_1024(b *testing.B) { benchTempering(b, 1024, 4) }
func BenchmarkTempering8_1024(b *testing.B) { benchTempering(b, 1024, 8) }
func BenchmarkTempering8_4096(b *testing.B) { benchTempering(b, 4096, 8) }

// benchEnsemble times whole-ensemble sweeps of the lane-packed engine
// (internal/ising/ensemble): `lanes` independent chains advance per Sweep,
// so the reported host_flips/ns is the aggregate over all lanes. Exact mode
// draws one random per lane per site (each lane bit-identical to a
// standalone multispin chain); shared mode draws once per ΔE class per site
// across all lanes (Block/Virnau/Preis), which is where the large aggregate
// speedup over BenchmarkEnsembleSequential64_256 comes from.
func benchEnsemble(b *testing.B, size, lanes int, shared bool) {
	e, err := ensemble.New(ensemble.Config{
		Rows: size, Cols: size, Lanes: lanes, Temperature: 2.5, Seed: 1, SharedRandom: shared,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Sweep()
	}
	b.StopTimer()
	spins := float64(size) * float64(size) * float64(lanes) * float64(b.N)
	b.ReportMetric(spins/float64(b.Elapsed().Nanoseconds()), "host_flips/ns")
}

func BenchmarkEnsemble64_256(b *testing.B)       { benchEnsemble(b, 256, 64, false) }
func BenchmarkEnsemble8_256(b *testing.B)        { benchEnsemble(b, 256, 8, false) }
func BenchmarkEnsembleShared64_256(b *testing.B) { benchEnsemble(b, 256, 64, true) }
func BenchmarkEnsembleShared64_1024(b *testing.B) {
	benchEnsemble(b, 1024, 64, true)
}

// BenchmarkEnsembleSequential64_256 is the baseline the ensemble engine
// replaces: the same 64 chains as separate per-site multispin engines
// (lane-derived seeds), swept one after another. One iteration sweeps every
// chain once, so host_flips/ns is directly comparable with
// BenchmarkEnsemble64_256 and BenchmarkEnsembleShared64_256.
func BenchmarkEnsembleSequential64_256(b *testing.B) {
	const size, lanes = 256, 64
	engines := make([]ising.Backend, lanes)
	for l := range engines {
		eng, err := backend.New("multispin", backend.Config{
			Rows: size, Cols: size, Temperature: 2.5, Seed: ising.LaneSeed(1, l),
		})
		if err != nil {
			b.Fatal(err)
		}
		engines[l] = eng
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, eng := range engines {
			eng.Sweep()
		}
	}
	b.StopTimer()
	spins := float64(size) * float64(size) * float64(lanes) * float64(b.N)
	b.ReportMetric(spins/float64(b.Elapsed().Nanoseconds()), "host_flips/ns")
}

// BenchmarkEnsembleAdapter8_256 times the generic batch adapter over gpusim
// lanes — the path every non-multispin backend takes through backend.NewBatch.
func BenchmarkEnsembleAdapter8_256(b *testing.B) {
	const size, lanes = 256, 8
	batch, err := backend.NewBatch("gpusim", backend.Config{
		Rows: size, Cols: size, Temperature: 2.5, Seed: 1,
	}, lanes)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Sweep()
	}
	b.StopTimer()
	spins := float64(size) * float64(size) * float64(lanes) * float64(b.N)
	b.ReportMetric(spins/float64(b.Elapsed().Nanoseconds()), "host_flips/ns")
}

// BenchmarkEstimateSweepCounts times the analytic work estimator at paper
// scale (it must stay trivially cheap, since every table row calls it).
func BenchmarkEstimateSweepCounts(b *testing.B) {
	spec := perf.SweepSpec{
		Rows: 896 * 128, Cols: 448 * 128, Tile: 128,
		DType: tensor.BFloat16, Algorithm: perf.AlgOptim, Halo: true, PodX: 32, PodY: 16,
	}
	for i := 0; i < b.N; i++ {
		_ = perf.EstimateSweepCounts(spec)
	}
}
