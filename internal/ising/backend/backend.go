// Package backend constructs the repository's Ising engines by name behind
// the ising.Backend interface: the serial checkerboard reference, the
// GPU-style parallel CPU baseline, the bit-packed multispin engine, its
// mesh-sharded pod decomposition and the simulated-TPU simulator. The CLI's -backend flag, the harness's host
// baseline table and the repository benchmarks all go through New, so adding
// an engine here makes it available everywhere at once.
package backend

import (
	"fmt"
	"sort"
	"strings"

	"tpuising/internal/ising"
	"tpuising/internal/ising/checkerboard"
	"tpuising/internal/ising/ensemble"
	"tpuising/internal/ising/gpusim"
	"tpuising/internal/ising/multispin"
	"tpuising/internal/ising/sharded"
	"tpuising/internal/ising/shardedensemble"
	"tpuising/internal/ising/tpu"
	"tpuising/internal/rng"
	"tpuising/internal/tensor"
)

// Config carries the union of the engine configuration parameters; each
// engine reads the fields it understands and ignores the rest.
type Config struct {
	// Rows and Cols are the lattice dimensions (the multispin engines need
	// even Rows and Cols a multiple of 64).
	Rows, Cols int
	// Temperature is in units of J/kB (0 = the critical temperature).
	Temperature float64
	// Seed seeds the engine's site-keyed random stream.
	Seed uint64
	// Workers is the goroutine count of the parallel host engines
	// (0 = GOMAXPROCS).
	Workers int
	// GridR and GridC are the shard grid dimensions of the sharded backend
	// (0 = 1): GridR shards along the rows, GridC along the columns, one
	// simulated mesh core per shard. The other engines ignore them.
	GridR, GridC int
	// TileSize is the simulated MXU tile edge of the tpu backend (0 picks the
	// largest power-of-two tile, up to 128, that divides half of both
	// dimensions).
	TileSize int
	// DType is the tpu backend's storage precision (default bfloat16).
	DType tensor.DType
	// Algorithm is the tpu backend's update kernel (default Algorithm 2).
	Algorithm tpu.Algorithm
	// Hot starts from a random (infinite-temperature) lattice instead of the
	// cold all-up start. The tpu backend ignores it.
	Hot bool
}

// builders maps canonical backend names to constructors.
var builders = map[string]func(Config) (ising.Backend, error){
	"checkerboard":     newCheckerboard,
	"gpusim":           newGPUSim,
	"multispin":        newMultispin(false),
	"multispin-shared": newMultispin(true),
	"sharded":          newSharded,
	"sharded-ensemble": newShardedEnsemble,
	"tpu":              newTPU,
}

// aliases maps accepted spellings to canonical names.
var aliases = map[string]string{
	"serial":   "checkerboard",
	"cpu":      "checkerboard",
	"parallel": "gpusim",
	"gpu":      "gpusim",
}

// Names returns the canonical backend names, sorted.
func Names() []string {
	out := make([]string, 0, len(builders))
	for name := range builders {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// List returns the canonical backend names joined as "a, b, c". It is the
// single source of the registry listing used by every user-facing error and
// usage string — the -backend flag help, the CLI's flag-validation fatals and
// the service's job-spec errors all print exactly this list.
func List() string { return strings.Join(Names(), ", ") }

// Canonical resolves a backend name or alias to its canonical form.
func Canonical(name string) (string, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	if a, ok := aliases[n]; ok {
		n = a
	}
	if _, ok := builders[n]; !ok {
		return "", fmt.Errorf("backend: unknown engine %q (want one of %s)", name, List())
	}
	return n, nil
}

// New builds the named engine. Name matching is case-insensitive and accepts
// the aliases serial/cpu (checkerboard) and parallel/gpu (gpusim).
func New(name string, cfg Config) (ising.Backend, error) {
	n, err := Canonical(name)
	if err != nil {
		return nil, err
	}
	if cfg.Rows <= 0 || cfg.Cols <= 0 {
		return nil, fmt.Errorf("backend: invalid lattice size %dx%d", cfg.Rows, cfg.Cols)
	}
	return builders[n](cfg)
}

// NewBatch builds a batched ensemble of `lanes` independent chains of the
// named engine, all at cfg.Temperature, with lane L seeded
// ising.LaneSeed(cfg.Seed, L). When the engine is the per-site multispin
// kernel (and the config fits its constraints), the lanes come back as one
// lane-packed internal/ising/ensemble engine — bit-identical chains, one
// word pass per site for all of them; every other registered engine is
// lifted through the generic adapter, so the batch axis works for the whole
// registry. Batching is an execution strategy, never a physics change: lane
// L's chain is the same chain either way.
func NewBatch(name string, cfg Config, lanes int) (ising.BatchBackend, error) {
	if lanes < 1 {
		return nil, fmt.Errorf("backend: batch needs at least 1 lane, got %d", lanes)
	}
	temps := make([]float64, lanes)
	for i := range temps {
		temps[i] = temperature(cfg)
	}
	return NewBatchLadder(name, cfg, temps)
}

// NewBatchLadder is NewBatch with one temperature per lane: lane L runs at
// temps[L] (still seeded ising.LaneSeed(cfg.Seed, L), cfg.Temperature
// ignored). It is how the consumers hand a whole tempering ladder or
// temperature scan to one batched backend.
func NewBatchLadder(name string, cfg Config, temps []float64) (ising.BatchBackend, error) {
	n, err := Canonical(name)
	if err != nil {
		return nil, err
	}
	if len(temps) == 0 {
		return nil, fmt.Errorf("backend: batch needs at least 1 lane temperature")
	}
	if packedBatchEligible(n, cfg, len(temps)) {
		return ensemble.New(ensemble.Config{
			Rows: cfg.Rows, Cols: cfg.Cols, Lanes: len(temps),
			Temperatures: temps, Seed: cfg.Seed,
			Workers: cfg.Workers, Hot: cfg.Hot,
		})
	}
	if shardedBatchEligible(n, cfg, len(temps)) {
		return shardedensemble.New(shardedensemble.Config{
			Rows: cfg.Rows, Cols: cfg.Cols, GridR: cfg.GridR, GridC: cfg.GridC,
			Lanes: len(temps), Temperatures: temps, Seed: cfg.Seed, Hot: cfg.Hot,
		})
	}
	return NewLanes(n, cfg, temps)
}

// NewLanes builds the lanes of NewBatchLadder as standalone engines of the
// named backend — lane L at temps[L], seeded ising.LaneSeed(cfg.Seed, L) —
// behind the generic ising.NewBatchOf adapter, with cfg.Workers bounding how
// many lanes sweep concurrently. It is NewBatchLadder's fallback for engines
// without a lane-packed form, and what callers use to run separate replicas
// even where a packed engine exists (for example to measure one against the
// other).
func NewLanes(name string, cfg Config, temps []float64) (*ising.Batch, error) {
	backends := make([]ising.Backend, len(temps))
	for i, temp := range temps {
		c := cfg
		c.Temperature = temp
		c.Seed = ising.LaneSeed(cfg.Seed, i)
		var err error
		if backends[i], err = New(name, c); err != nil {
			return nil, fmt.Errorf("backend: building batch lane %d: %w", i, err)
		}
	}
	return ising.NewBatchOf(backends, cfg.Workers)
}

// packedBatchEligible reports whether a batch of the named engine can run on
// the lane-packed ensemble engine: per-site multispin chains (the packed
// lanes are bit-identical to those), a lattice satisfying the multispin
// constraints, at most 64 lanes, and no shard grid.
func packedBatchEligible(name string, cfg Config, lanes int) bool {
	return name == "multispin" &&
		lanes <= ensemble.MaxLanes &&
		cfg.Rows >= 2 && cfg.Rows%2 == 0 &&
		cfg.Cols > 0 && cfg.Cols%multispin.WordBits == 0 &&
		cfg.GridR <= 1 && cfg.GridC <= 1
}

// shardedBatchEligible reports whether a batch of the sharded-ensemble
// backend can run as one composed engine — all lanes lane-packed across the
// whole pod grid at once instead of one grid per lane. The constraints are
// the engine's own (divisible grid, whole random groups per shard); a batch
// that violates them falls back to the generic adapter, one pod per lane.
func shardedBatchEligible(name string, cfg Config, lanes int) bool {
	gridR, gridC := cfg.GridR, cfg.GridC
	if gridR <= 0 {
		gridR = 1
	}
	if gridC <= 0 {
		gridC = 1
	}
	return name == "sharded-ensemble" &&
		lanes <= shardedensemble.MaxLanes &&
		cfg.Rows >= 2 && cfg.Rows%2 == 0 && cfg.Rows%gridR == 0 &&
		cfg.Cols > 0 && cfg.Cols%multispin.WordBits == 0 && cfg.Cols%(8*gridC) == 0
}

// hostLattice builds the starting configuration of the host engines.
func hostLattice(cfg Config) *ising.Lattice {
	if cfg.Hot {
		return ising.NewRandomLattice(cfg.Rows, cfg.Cols, rng.New(cfg.Seed))
	}
	return ising.NewLattice(cfg.Rows, cfg.Cols)
}

func newCheckerboard(cfg Config) (ising.Backend, error) {
	return checkerboard.NewSampler(hostLattice(cfg), temperature(cfg), cfg.Seed), nil
}

func newGPUSim(cfg Config) (ising.Backend, error) {
	// ParallelSweep's row-band parallelism relies on the checkerboard being
	// bipartite on the torus, which needs even dimensions: with an odd row
	// count the wrap-around neighbours share a colour and adjacent bands
	// would race on them.
	if cfg.Rows%2 != 0 || cfg.Cols%2 != 0 {
		return nil, fmt.Errorf("backend: gpusim needs even lattice dimensions, got %dx%d", cfg.Rows, cfg.Cols)
	}
	return gpusim.NewSampler(hostLattice(cfg), temperature(cfg), cfg.Seed, cfg.Workers), nil
}

func newMultispin(shared bool) func(Config) (ising.Backend, error) {
	return func(cfg Config) (ising.Backend, error) {
		mc := multispin.Config{
			Rows: cfg.Rows, Cols: cfg.Cols, Temperature: cfg.Temperature,
			Seed: cfg.Seed, SharedRandom: shared, Workers: cfg.Workers,
		}
		if cfg.Hot {
			mc.Initial = hostLattice(cfg)
		}
		return multispin.New(mc)
	}
}

func newSharded(cfg Config) (ising.Backend, error) {
	sc := sharded.Config{
		Rows: cfg.Rows, Cols: cfg.Cols, GridR: cfg.GridR, GridC: cfg.GridC,
		Temperature: cfg.Temperature, Seed: cfg.Seed,
	}
	if cfg.Hot {
		sc.Initial = hostLattice(cfg)
	}
	return sharded.New(sc)
}

func newShardedEnsemble(cfg Config) (ising.Backend, error) {
	return shardedensemble.NewSingle(shardedensemble.Config{
		Rows: cfg.Rows, Cols: cfg.Cols, GridR: cfg.GridR, GridC: cfg.GridC,
		Temperature: cfg.Temperature, Seed: cfg.Seed, Hot: cfg.Hot,
	})
}

func newTPU(cfg Config) (ising.Backend, error) {
	tile := cfg.TileSize
	if tile == 0 {
		tile = DefaultTile(cfg.Rows, cfg.Cols)
	}
	return tpu.NewSimulator(tpu.Config{
		Rows: cfg.Rows, Cols: cfg.Cols, Temperature: cfg.Temperature,
		TileSize: tile, DType: cfg.DType, Algorithm: cfg.Algorithm, Seed: cfg.Seed,
	}), nil
}

// temperature applies the shared zero-means-Tc default.
func temperature(cfg Config) float64 {
	if cfg.Temperature == 0 {
		return ising.CriticalTemperature()
	}
	return cfg.Temperature
}

// DefaultTile picks the largest power-of-two MXU tile (up to 128) that
// divides half of both lattice dimensions, so small demo lattices work out of
// the box on the tpu backend.
func DefaultTile(rows, cols int) int {
	for _, t := range []int{128, 64, 32, 16, 8, 4, 2} {
		if rows%(2*t) == 0 && cols%(2*t) == 0 {
			return t
		}
	}
	return 2
}
