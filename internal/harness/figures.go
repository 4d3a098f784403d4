package harness

import (
	"fmt"

	"tpuising/internal/ising"
	"tpuising/internal/ising/gpusim"
	"tpuising/internal/ising/tpu"
	"tpuising/internal/perf"
	"tpuising/internal/sweep"
	"tpuising/internal/tensor"
)

// CorrectnessConfig controls the real Monte-Carlo runs behind Figures 4 and
// 7. The paper uses chains of 10^6 samples on lattices up to 2048^2; the
// defaults here are laptop-scale but keep the same structure (several lattice
// sizes, both precisions, a temperature window around Tc).
type CorrectnessConfig struct {
	// Sizes are the square lattice sides to simulate.
	Sizes []int
	// TileSize is the MXU tile edge used by the simulator.
	TileSize int
	// Temperatures is the grid of temperatures; defaults to a window of
	// T/Tc in [0.8, 1.2].
	Temperatures []float64
	// BurnIn and Samples control each chain's length.
	BurnIn, Samples int
	// Seed seeds every chain (combined with the size and precision).
	Seed uint64
}

func (c CorrectnessConfig) withDefaults() CorrectnessConfig {
	out := c
	if len(out.Sizes) == 0 {
		out.Sizes = []int{32, 64}
	}
	if out.TileSize == 0 {
		out.TileSize = 16
	}
	if len(out.Temperatures) == 0 {
		out.Temperatures = sweep.CriticalWindow(0.2, 9)
	}
	if out.BurnIn == 0 {
		out.BurnIn = 200
	}
	if out.Samples == 0 {
		out.Samples = 400
	}
	return out
}

// tpuChain adapts the single-core TPU simulator to the sweep.Chain interface.
type tpuChain struct{ sim *tpu.Simulator }

func (c tpuChain) Sweep()                 { c.sim.Sweep() }
func (c tpuChain) Magnetization() float64 { return c.sim.Magnetization() }
func (c tpuChain) Energy() float64        { return c.sim.Energy() }

// correctnessFigure runs the magnetisation/Binder study with the given update
// algorithm (Algorithm 2 for Figure 4, the conv variant for Figure 7).
func correctnessFigure(id, title string, alg tpu.Algorithm, cfg CorrectnessConfig) *Table {
	c := cfg.withDefaults()
	t := &Table{
		ID:    id,
		Title: title,
		Columns: []string{
			"lattice", "precision", "T/Tc", "|m|", "|m| err", "U4",
		},
	}
	tc := ising.CriticalTemperature()
	for _, size := range c.Sizes {
		for _, dtype := range []tensor.DType{tensor.Float32, tensor.BFloat16} {
			dtypeName := "float32"
			if dtype == tensor.BFloat16 {
				dtypeName = "bfloat16"
			}
			points := sweep.Run(sweep.Config{
				Temperatures: c.Temperatures,
				BurnIn:       c.BurnIn,
				Samples:      c.Samples,
			}, func(temperature float64) sweep.Chain {
				return tpuChain{tpu.NewSimulator(tpu.Config{
					Rows: size, Cols: size, Temperature: temperature,
					TileSize: c.TileSize, DType: dtype, Algorithm: alg,
					Seed: c.Seed + uint64(size),
				})}
			})
			for _, p := range points {
				t.AddRow(fmt.Sprintf("%dx%d", size, size), dtypeName,
					p.Temperature/tc, p.AbsMagnetization, p.AbsMagnetizationErr, p.Binder)
			}
		}
	}
	t.Notes = append(t.Notes,
		"each row is one Markov chain at one temperature; the Binder curves of different sizes cross near T/Tc = 1",
		"float32 and bfloat16 series use the same seeds and should overlap within statistical error")
	return t
}

// Figure4 regenerates the correctness study of Section 4.1: average
// magnetisation and Binder parameter vs T/Tc for several lattice sizes in
// float32 and bfloat16, using Algorithm 2.
func Figure4(cfg CorrectnessConfig) *Table {
	return correctnessFigure("figure4",
		"Binder parameter U4(T) and magnetisation m(T) vs T/Tc (Algorithm 2)", tpu.AlgOptim, cfg)
}

// Figure7 regenerates the appendix correctness study using the conv-based
// update.
func Figure7(cfg CorrectnessConfig) *Table {
	return correctnessFigure("figure7",
		"Binder parameter U4(T) and magnetisation m(T) vs T/Tc (conv-based update)", tpu.AlgConv, cfg)
}

// Figure8 regenerates the cross-system throughput comparison: flips/ns vs
// problem size for the TPU core and pod slices of this work, the published
// GPU/FPGA single devices and the DGX-2/2H systems of Romero et al.
func Figure8(m perf.Model) *Table {
	t := &Table{
		ID:    "figure8",
		Title: "Throughput comparison over problem sizes and systems",
		Columns: []string{
			"system", "devices", "lattice side", "flips/ns",
		},
	}
	// TPU v3 single core across Table 1 sizes.
	for _, tiles := range []int{20, 160, 640} {
		side := tiles * 128
		counts := perf.EstimateSweepCounts(perf.SweepSpec{
			Rows: side, Cols: side, Tile: 128, DType: tensor.BFloat16, Algorithm: perf.AlgOptim,
		})
		step := m.StepBreakdown(counts, 1).StepSec()
		t.AddRow("TPU v3 core (this work)", 1, side,
			perf.Throughput(float64(side)*float64(side), step))
	}
	// TPU v3 pod slices across Table 2 sizes.
	for _, n := range []int{2, 8, 16} {
		cores := n * n * 2
		sp := podCounts(superdenseRowTiles, superdenseColTiles, 2*n, n)
		counts := perf.EstimateSweepCounts(sp)
		step := m.StepBreakdown(counts, cores).StepSec()
		globalSpins := float64(sp.Rows) * float64(sp.Cols) * float64(cores)
		t.AddRow(fmt.Sprintf("TPU v3 pod slice %dx%dx2 (this work)", n, n), cores, 512*128*n,
			perf.Throughput(globalSpins, step))
	}
	// Conv-based full pod (appendix).
	conv := m.ForConv()
	counts := perf.EstimateSweepCounts(perf.SweepSpec{
		Rows: denseTiles * 128, Cols: denseTiles * 128, Tile: 128,
		DType: tensor.BFloat16, Algorithm: perf.AlgConv, Halo: true, PodX: 45, PodY: 45,
	})
	step := conv.StepBreakdown(counts, 2025).StepSec()
	global := float64(denseTiles*128) * float64(denseTiles*128) * 2025
	t.AddRow("TPU v3 pod [45,45] conv (this work)", 2025, 128*20160,
		perf.Throughput(global, step))
	// Published baselines.
	for _, ref := range []gpusim.DeviceModel{
		gpusim.PreisGPU(), gpusim.TeslaV100(), gpusim.FPGA(), gpusim.DGX2(), gpusim.DGX2H(),
	} {
		t.AddRow(ref.Name+" (published)", 1, 0, ref.FlipsPerNs)
	}
	blocks := gpusim.NewCluster(gpusim.PreisGPU(), 64, 800000)
	t.AddRow("64 GPUs + MPI (published)", 64, 800000, blocks.Throughput())
	t.Notes = append(t.Notes, "lattice side 0 means the source does not specify the problem size")
	return t
}

// Figure9 regenerates the strong-scaling curve of the conv-based
// implementation against ideal linear scaling.
func Figure9(m perf.Model) *Table {
	t := &Table{
		ID:    "figure9",
		Title: "Strong scaling on the (128x1792)^2 lattice vs ideal linear scaling",
		Columns: []string{
			"#cores", "flips/ns", "ideal flips/ns", "efficiency",
		},
	}
	rows := strongScalingRows(m.ForConv())
	if len(rows) == 0 {
		return t
	}
	base := rows[0]
	for _, r := range rows {
		ideal := base.throughput * float64(r.cores) / float64(base.cores)
		t.AddRow(r.cores, r.throughput, ideal, r.throughput/ideal)
	}
	return t
}

// PrecisionComparison is an extension experiment quantifying the bfloat16 vs
// float32 claim (Section 4.1): it runs paired chains at the given size and a
// few temperatures and reports the difference in |m| and U4.
func PrecisionComparison(size, tile, burnIn, samples int, seed uint64) *Table {
	t := &Table{
		ID:    "precision",
		Title: "bfloat16 vs float32: paired-chain differences in |m| and U4",
		Columns: []string{
			"T/Tc", "|m| f32", "|m| bf16", "delta |m|", "U4 f32", "U4 bf16", "delta U4",
		},
	}
	tc := ising.CriticalTemperature()
	temps := []float64{0.85 * tc, tc, 1.15 * tc}
	run := func(dtype tensor.DType) []sweep.Point {
		return sweep.Run(sweep.Config{Temperatures: temps, BurnIn: burnIn, Samples: samples},
			func(temperature float64) sweep.Chain {
				return tpuChain{tpu.NewSimulator(tpu.Config{
					Rows: size, Cols: size, Temperature: temperature,
					TileSize: tile, DType: dtype, Algorithm: tpu.AlgOptim, Seed: seed,
				})}
			})
	}
	f32 := run(tensor.Float32)
	bf16 := run(tensor.BFloat16)
	for i := range f32 {
		t.AddRow(f32[i].Temperature/tc,
			f32[i].AbsMagnetization, bf16[i].AbsMagnetization,
			f32[i].AbsMagnetization-bf16[i].AbsMagnetization,
			f32[i].Binder, bf16[i].Binder,
			f32[i].Binder-bf16[i].Binder)
	}
	return t
}

// AllPerformanceTables returns every model-driven table (1-7, HBM, Figures 8
// and 9, and the kernel ablation) in order; the correctness figures are
// excluded because they run real Monte-Carlo chains and are generated
// separately.
func AllPerformanceTables(m perf.Model) []*Table {
	return []*Table{
		Table1(m), Table2(m), Table3(m), Table4(m), Table5(m),
		Table6(m), Table7(m), TableHBM(m), Figure8(m), Figure9(m),
		AlgorithmAblation(m, superdenseRowTiles, superdenseColTiles),
	}
}
