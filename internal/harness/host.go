package harness

import (
	"fmt"
	"time"

	"tpuising/internal/interconnect"
	"tpuising/internal/ising"
	"tpuising/internal/ising/backend"
	"tpuising/internal/ising/shardedensemble"
	"tpuising/internal/perf"
)

// hostBaselineBackends are the CPU engines measured by HostBaselines, in
// table-column order: the serial reference, the GPU-style parallel baseline,
// and the two bit-packed multispin variants.
var hostBaselineBackends = []string{"checkerboard", "gpusim", "multispin", "multispin-shared"}

// HostBaselines measures the real host-side throughput of the CPU engines on
// the machine running the harness, one lattice size per row and one engine
// per column. Unlike the model-driven tables (whose flips/ns are modelled
// TPU numbers), every cell here is a wall-clock measurement, giving the
// paper's tables a measured CPU anchor; the last column is the speedup of
// the bit-packed multispin engine over the parallel checkerboard baseline.
func HostBaselines(sizes []int, sweeps int) *Table {
	t := &Table{
		ID:    "host_baselines",
		Title: "Measured host throughput (flips/ns) of the CPU engines vs lattice size",
		Columns: []string{
			"lattice", "checkerboard", "gpusim", "multispin", "multispin-shared", "multispin speedup",
		},
	}
	for _, size := range sizes {
		row := []interface{}{fmt.Sprintf("%dx%d", size, size)}
		var parallel, multispin float64
		for _, name := range hostBaselineBackends {
			tput := measureHostThroughput(name, size, sweeps)
			switch name {
			case "gpusim":
				parallel = tput
			case "multispin":
				multispin = tput
			}
			row = append(row, fmt.Sprintf("%.4f", tput))
		}
		speedup := 0.0
		if parallel > 0 {
			speedup = multispin / parallel
		}
		row = append(row, fmt.Sprintf("%.1fx", speedup))
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"measured wall-clock host throughput on this machine, not modelled TPU throughput",
		fmt.Sprintf("%d timed sweeps per cell after 2 warm-up sweeps; speedup is multispin over gpusim", sweeps),
	)
	return t
}

// HostShardScaling measures the sharded multispin engine on one lattice size
// across shard grids, pairing every measured host_flips/ns cell with the
// modelled interconnect traffic of its halo exchanges (perf.ShardTraffic):
// packed bytes per link per sweep and the modelled collective-permute time on
// the TPU v3 link parameters. The byte counts are exact — the engine's
// measured comm counters reproduce them — so the table reads like the
// paper's Table 4 with a measured host column.
func HostShardScaling(size int, grids [][2]int, sweeps int) *Table {
	t := &Table{
		ID: "host_shard_scaling",
		Title: fmt.Sprintf(
			"Measured sharded-multispin throughput on a %dx%d lattice vs modelled interconnect traffic", size, size),
		Columns: []string{
			"shards", "host_flips/ns", "speedup", "row link B/sweep", "col link B/sweep", "model permute us/sweep",
		},
	}
	link := interconnect.DefaultLinkParams()
	var base float64
	for _, g := range grids {
		eng, err := backend.New("sharded", backend.Config{
			Rows: size, Cols: size, Temperature: 2.5, Seed: 1, GridR: g[0], GridC: g[1],
		})
		if err != nil {
			panic(fmt.Sprintf("harness: %v", err))
		}
		tput := measureThroughput(eng, size, sweeps)
		if base == 0 {
			base = tput
		}
		rep := perf.ShardTraffic(perf.ShardSpec{Rows: size, Cols: size, GridR: g[0], GridC: g[1]}, link)
		t.AddRow(
			fmt.Sprintf("%dx%d", g[0], g[1]),
			fmt.Sprintf("%.4f", tput),
			fmt.Sprintf("%.2fx", tput/base),
			fmt.Sprintf("%d", rep.RowLinkBytes),
			fmt.Sprintf("%d", rep.ColLinkBytes),
			fmt.Sprintf("%.2f", rep.PermuteSec*1e6),
		)
	}
	t.Notes = append(t.Notes,
		"host_flips/ns is measured wall clock on this machine; traffic and permute time are modelled",
		"halos are bit-packed (1 bit/spin): a link moves 4 halo messages per sweep (2 colours x 2 directions)",
		fmt.Sprintf("%d timed sweeps per cell after 2 warm-up sweeps; speedup is relative to the first grid", sweeps),
	)
	return t
}

// HostShardedEnsembleScaling measures the composed batched×sharded engine on
// one lattice size across shard grids, pairing every measured aggregate
// host_flips/ns cell (all lanes of all shards) with the modelled interconnect
// traffic of its lane-packed halo exchanges (perf.ShardedEnsembleTraffic) —
// whose byte counts the engine's comm counters reproduce exactly. This is the
// paper's actual per-core workload: every mesh core advances a full batch of
// lane-packed replicas between halo exchanges.
func HostShardedEnsembleScaling(size, lanes int, grids [][2]int, sweeps int) *Table {
	t := &Table{
		ID: "host_sharded_ensemble_scaling",
		Title: fmt.Sprintf(
			"Measured sharded-ensemble throughput (%d lanes, %dx%d) vs modelled interconnect traffic", lanes, size, size),
		Columns: []string{
			"shards", "aggregate flips/ns", "speedup", "row link B/sweep", "col link B/sweep", "model permute us/sweep",
		},
	}
	link := interconnect.DefaultLinkParams()
	var base float64
	for _, g := range grids {
		tput := measureShardedEnsemble(size, lanes, g[0], g[1], sweeps)
		if base == 0 {
			base = tput
		}
		rep := perf.ShardedEnsembleTraffic(perf.ShardedEnsembleSpec{
			Rows: size, Cols: size, GridR: g[0], GridC: g[1], Lanes: lanes,
		}, link)
		t.AddRow(
			fmt.Sprintf("%dx%d", g[0], g[1]),
			fmt.Sprintf("%.4f", tput),
			fmt.Sprintf("%.2fx", ratio(tput, base)),
			fmt.Sprintf("%d", rep.RowLinkBytes),
			fmt.Sprintf("%d", rep.ColLinkBytes),
			fmt.Sprintf("%.2f", rep.PermuteSec*1e6),
		)
	}
	t.Notes = append(t.Notes,
		"aggregate measured wall clock on this machine: lattice spins x lanes x sweeps / elapsed ns",
		"halo words are lane-packed (64 chains per word), so the traffic is independent of the lane count — per replica it shrinks by the lanes",
		fmt.Sprintf("%d timed sweeps per cell after 2 warm-up sweeps; speedup is relative to the first grid", sweeps),
	)
	return t
}

// measureShardedEnsemble times sweeps of one composed engine (per-lane random
// mode) and returns aggregate flips/ns over all lanes.
func measureShardedEnsemble(size, lanes, gridR, gridC, sweeps int) float64 {
	e, err := shardedensemble.New(shardedensemble.Config{
		Rows: size, Cols: size, GridR: gridR, GridC: gridC,
		Lanes: lanes, Temperature: 2.5, Seed: 1,
	})
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	e.Run(2) // warm up caches and the pod goroutines
	start := time.Now()
	e.Run(sweeps)
	elapsed := time.Since(start)
	if elapsed <= 0 {
		return 0
	}
	return float64(size) * float64(size) * float64(lanes) * float64(sweeps) / float64(elapsed.Nanoseconds())
}

// measureHostThroughput times sweeps of one engine and returns flips/ns.
func measureHostThroughput(name string, size, sweeps int) float64 {
	eng, err := backend.New(name, backend.Config{Rows: size, Cols: size, Temperature: 2.5, Seed: 1})
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	return measureThroughput(eng, size, sweeps)
}

// measureThroughput times sweeps of an already-built engine (after two
// warm-up sweeps) and returns flips/ns.
func measureThroughput(eng ising.Backend, size, sweeps int) float64 {
	eng.Sweep() // warm up caches and goroutine pools
	eng.Sweep()
	start := time.Now()
	for i := 0; i < sweeps; i++ {
		eng.Sweep()
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		return 0
	}
	return float64(size) * float64(size) * float64(sweeps) / float64(elapsed.Nanoseconds())
}

// ratio guards the speedup columns against a zero-time baseline.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
