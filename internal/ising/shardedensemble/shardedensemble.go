// Package shardedensemble composes the repository's two scaling axes into
// the paper's full execution shape: a GridR x GridC pod mesh of shards
// (internal/ising/sharded's spatial decomposition) where every shard advances
// up to 64 lane-packed replica lattices at once (internal/ising/ensemble's
// batch axis). Each shard owns a contiguous block of the per-lane lattice
// stored as lane-packed words — one uint64 per site, one bit-lane per
// replica — and each checkerboard half-sweep exchanges four halos of
// lane-packed words with its mesh neighbours over the simulated interconnect
// (pod.Replica.ShiftExchangeWords): its boundary rows north and south, its
// boundary site-word columns east and west. A word moved over a link carries
// that boundary site for all 64 replicas at once, which is exactly how the
// paper amortises halo latency over its per-core batch dimension.
//
// The composition is an execution strategy, never a physics change. Shards
// call the shared ensemble.Kernel with global row indices and global random-
// group offsets, so every site of every lane draws exactly the randoms the
// standalone ensemble engine draws — lane L of a sharded ensemble is
// bit-identical to lane L of a standalone ensemble with the same seed (and
// hence to a standalone multispin chain seeded ising.LaneSeed(seed, L)),
// whatever the shard grid. The lane-equivalence tests assert this per lane
// for multiple grids.
package shardedensemble

import (
	"fmt"
	"hash/fnv"
	"math/bits"

	"tpuising/internal/device/metrics"
	"tpuising/internal/ising"
	"tpuising/internal/ising/ensemble"
	"tpuising/internal/pod"
	"tpuising/internal/rng"
)

// MaxLanes is the number of replicas packed per uint64 word.
const MaxLanes = ensemble.MaxLanes

// groupCols is the column span of one four-site random group of a
// checkerboard colour (four active sites, stride two). Shard widths must be
// multiples of it so groups never straddle a shard boundary — the constraint
// that lets a shard draw its randoms with whole-group batched Philox calls
// at a global group offset.
const groupCols = 8

// Config describes a sharded lane-packed ensemble.
type Config struct {
	// Rows and Cols are the per-lane lattice dimensions, with the ensemble
	// constraints (even Rows >= 2, Cols a positive multiple of 64). Rows must
	// divide over GridR; Cols over GridC with every shard a multiple of 8
	// columns wide (so four-site random groups never straddle shards).
	Rows, Cols int
	// GridR and GridC are the shard grid dimensions: GridR shards along the
	// row (north-south) axis, GridC along the column (east-west) axis, one
	// simulated mesh core per shard (0 means 1).
	GridR, GridC int
	// Lanes is the number of independent replicas, 1 to 64.
	Lanes int
	// Temperature is the shared lane temperature in J/kB (0 = the critical
	// temperature). Ignored when Temperatures is set.
	Temperature float64
	// Temperatures, when non-empty, gives every lane its own temperature
	// (len == Lanes), like ensemble.Config.Temperatures.
	Temperatures []float64
	// Seed is the run seed; lane L's chain is seeded ising.LaneSeed(Seed, L).
	Seed uint64
	// SharedRandom selects the class-shared random mode (one draw per ΔE
	// class per site, shared across lanes).
	SharedRandom bool
	// Hot starts every lane from its own random (infinite-temperature)
	// lattice, exactly like ensemble.Config.Hot.
	Hot bool
}

// shard is one core's block of the lane-packed lattice plus its halo buffers.
type shard struct {
	words  []uint64 // shardRows*shardCols lane-packed site words, row-major
	rowOff int      // global row index of local row 0
	colOff int      // global column index of local column 0
	// north and south hold the neighbour boundary rows received for the
	// current half-sweep (shardCols words); east and west the neighbour
	// boundary site-word columns (shardRows words, one per local row).
	north, south []uint64
	east, west   []uint64
	edge         []uint64         // scratch for building outgoing word columns
	scratch      ensemble.Scratch // per-shard kernel scratch (shared-mode draws)
}

// Engine is the mesh-sharded lane-packed sampler. It satisfies
// ising.BatchBackend and ising.BatchTempered.
type Engine struct {
	rows, cols   int
	lanes        int
	gridR, gridC int
	shardRows    int // rows per shard
	shardCols    int // site words per shard row
	pod          *pod.Pod
	shards       []*shard // indexed by core ID (row-major over the mesh grid)
	kern         *ensemble.Kernel
	step         uint64
	seed         uint64

	// Observable caches, stamped like ensemble's (^0 = never).
	magsStep, esStep uint64
	mags, es         []float64
}

// New builds an engine from the config.
func New(cfg Config) (*Engine, error) {
	gridR, gridC := cfg.GridR, cfg.GridC
	if gridR == 0 {
		gridR = 1
	}
	if gridC == 0 {
		gridC = 1
	}
	if gridR < 0 || gridC < 0 {
		return nil, fmt.Errorf("shardedensemble: shard grid must be positive, got %dx%d", cfg.GridR, cfg.GridC)
	}
	if cfg.Rows < 2 || cfg.Rows%2 != 0 {
		return nil, fmt.Errorf("shardedensemble: rows must be even and >= 2, got %d", cfg.Rows)
	}
	if cfg.Rows%gridR != 0 {
		return nil, fmt.Errorf("shardedensemble: %d rows do not divide over %d shard rows (want rows %% gridR == 0)",
			cfg.Rows, gridR)
	}
	if cfg.Cols <= 0 || cfg.Cols%ensemble.MaxLanes != 0 {
		return nil, fmt.Errorf("shardedensemble: cols must be a positive multiple of %d, got %d",
			ensemble.MaxLanes, cfg.Cols)
	}
	if cfg.Cols%(gridC*groupCols) != 0 {
		return nil, fmt.Errorf(
			"shardedensemble: %d cols do not divide over %d shard columns into whole %d-column random groups (want cols %% (gridC*%d) == 0)",
			cfg.Cols, gridC, groupCols, groupCols)
	}
	if cfg.Lanes < 1 || cfg.Lanes > MaxLanes {
		return nil, fmt.Errorf("shardedensemble: lanes must be 1..%d, got %d", MaxLanes, cfg.Lanes)
	}
	temps := cfg.Temperatures
	if len(temps) == 0 {
		t := cfg.Temperature
		if t == 0 {
			t = ising.CriticalTemperature()
		}
		temps = make([]float64, cfg.Lanes)
		for i := range temps {
			temps[i] = t
		}
	}
	if len(temps) != cfg.Lanes {
		return nil, fmt.Errorf("shardedensemble: %d temperatures for %d lanes", len(temps), cfg.Lanes)
	}
	kern, err := ensemble.NewKernel(cfg.Seed, temps, cfg.SharedRandom)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		rows: cfg.Rows, cols: cfg.Cols, lanes: cfg.Lanes,
		gridR: gridR, gridC: gridC,
		shardRows: cfg.Rows / gridR,
		shardCols: cfg.Cols / gridC,
		kern:      kern,
		seed:      cfg.Seed,
		// Mesh X axis = shard columns, Y axis = shard rows, matching the
		// sharded engine's mapping of the lattice onto the pod grid.
		pod:      pod.New(gridC, gridR),
		magsStep: ^uint64(0),
		esStep:   ^uint64(0),
	}
	e.shards = make([]*shard, e.pod.NumCores())
	for id := range e.shards {
		x, y := e.pod.Mesh().Coord(id)
		sh := &shard{
			words:  make([]uint64, e.shardRows*e.shardCols),
			rowOff: y * e.shardRows,
			colOff: x * e.shardCols,
			edge:   make([]uint64, e.shardRows),
		}
		for i := range sh.words {
			sh.words[i] = ^uint64(0) // cold start: all lanes all spins +1
		}
		e.shards[id] = sh
	}
	if cfg.Hot {
		for l := 0; l < e.lanes; l++ {
			lat := ising.NewRandomLattice(cfg.Rows, cfg.Cols, rng.New(ising.LaneSeed(cfg.Seed, l)))
			if err := e.SetLaneLattice(l, lat); err != nil {
				return nil, err
			}
		}
	}
	return e, nil
}

// Name identifies the engine ("sharded-ensemble" or
// "sharded-ensemble-shared").
func (e *Engine) Name() string {
	if e.kern.SharedMode() {
		return "sharded-ensemble-shared"
	}
	return "sharded-ensemble"
}

// Rows returns the per-lane row count.
func (e *Engine) Rows() int { return e.rows }

// Cols returns the per-lane column count.
func (e *Engine) Cols() int { return e.cols }

// Lanes returns the number of replicas.
func (e *Engine) Lanes() int { return e.lanes }

// N returns the spins of one lane's lattice.
func (e *Engine) N() int { return e.rows * e.cols }

// Grid returns the shard grid dimensions (rows, cols of shards).
func (e *Engine) Grid() (gridR, gridC int) { return e.gridR, e.gridC }

// NumShards returns the number of shards (= simulated mesh cores).
func (e *Engine) NumShards() int { return len(e.shards) }

// Step returns the number of colour updates performed so far per lane.
func (e *Engine) Step() uint64 { return e.step }

// Seed returns the run seed.
func (e *Engine) Seed() uint64 { return e.seed }

// LaneTemperature returns one lane's current temperature.
func (e *Engine) LaneTemperature(lane int) float64 { return e.kern.LaneTemperature(lane) }

// SetLaneTemperature changes one lane's temperature; the lane's chain
// continues from its current configuration (thresholds memoized per rung,
// like the standalone ensemble).
func (e *Engine) SetLaneTemperature(lane int, t float64) {
	e.kern.SetLaneTemperature(lane, t)
}

// Counts reports the attempted spin updates across all lanes in Ops (host
// work, like the other host engines) plus the pod-total interconnect traffic
// of the halo exchanges, which perf.ShardedEnsembleTraffic mirrors
// analytically (asserted equal by test).
func (e *Engine) Counts() metrics.Counts {
	total := e.pod.TotalCounts()
	return metrics.Counts{
		Ops:        int64(e.step) / 2 * int64(e.N()) * int64(e.lanes),
		CommBytes:  total.CommBytes,
		CommEvents: total.CommEvents,
		CommHops:   total.CommHops,
	}
}

// Pod exposes the underlying simulated pod (for profiling and tests).
func (e *Engine) Pod() *pod.Pod { return e.pod }

// rowWords returns the lane-packed words of one local row of a shard.
func (e *Engine) rowWords(sh *shard, r int) []uint64 {
	return sh.words[r*e.shardCols : (r+1)*e.shardCols]
}

// westColumn gathers the first word of every local row (the shard's
// westernmost site column, all lanes) into sh.edge and returns it.
func (e *Engine) westColumn(sh *shard) []uint64 {
	for r := 0; r < e.shardRows; r++ {
		sh.edge[r] = sh.words[r*e.shardCols]
	}
	return sh.edge
}

// eastColumn gathers the last word of every local row (the shard's
// easternmost site column, all lanes) into sh.edge and returns it.
func (e *Engine) eastColumn(sh *shard) []uint64 {
	for r := 0; r < e.shardRows; r++ {
		sh.edge[r] = sh.words[r*e.shardCols+e.shardCols-1]
	}
	return sh.edge
}

// exchangeHalos trades the four boundary halos with the mesh neighbours
// through the interconnect fabric: full lane-packed boundary rows north and
// south, lane-packed site-word columns east and west. Each call is four
// lockstep collective permutes; the received buffers are pre-update
// snapshots, which is exact because the colour update only consumes
// opposite-colour words.
func (e *Engine) exchangeHalos(r *pod.Replica, sh *shard) {
	// Send my last row south; receive my north neighbour's last row.
	sh.north = r.ShiftExchangeWords(e.rowWords(sh, e.shardRows-1), 0, 1)
	// Send my first row north; receive my south neighbour's first row.
	sh.south = r.ShiftExchangeWords(e.rowWords(sh, 0), 0, -1)
	// Send my west column west; receive my east neighbour's west column.
	sh.east = r.ShiftExchangeWords(e.westColumn(sh), -1, 0)
	// Send my east column east; receive my west neighbour's east column.
	sh.west = r.ShiftExchangeWords(e.eastColumn(sh), 1, 0)
}

// updateColor performs one Metropolis update of every active site of every
// lane on one shard, handing the shared lane-packed kernel global row indices
// and the shard's global random-group offset so the randoms match the
// standalone ensemble site for site.
func (e *Engine) updateColor(sh *shard, parity int, step uint64) {
	groupOff := sh.colOff / groupCols
	for lr := 0; lr < e.shardRows; lr++ {
		row := e.rowWords(sh, lr)
		north := sh.north
		if lr > 0 {
			north = e.rowWords(sh, lr-1)
		}
		south := sh.south
		if lr < e.shardRows-1 {
			south = e.rowWords(sh, lr+1)
		}
		e.kern.UpdateRow(row, north, south, sh.west[lr], sh.east[lr],
			sh.rowOff+lr, groupOff, parity, step, &sh.scratch)
	}
}

// Sweep performs one whole-lattice update of every lane: all shards exchange
// halos and update their black sites in lockstep, then exchange again and
// update the white sites, consuming two colour-step indices like every engine
// in the repository.
func (e *Engine) Sweep() {
	step := e.step
	err := e.pod.Replicate(func(r *pod.Replica) error {
		sh := e.shards[r.ID]
		e.exchangeHalos(r, sh)
		e.updateColor(sh, 0, step)
		e.exchangeHalos(r, sh)
		e.updateColor(sh, 1, step+1)
		return nil
	})
	if err != nil {
		panic(err)
	}
	e.step += 2
}

// Run performs n sweeps.
func (e *Engine) Run(n int) {
	for i := 0; i < n; i++ {
		e.Sweep()
	}
}

// refreshMags recomputes the per-lane magnetisations at the current step.
func (e *Engine) refreshMags() {
	if e.mags != nil && e.magsStep == e.step {
		return
	}
	if e.mags == nil {
		e.mags = make([]float64, e.lanes)
	}
	mask := e.kern.LaneMask()
	up := make([]int64, e.lanes)
	for _, sh := range e.shards {
		for _, w := range sh.words {
			w &= mask
			for w != 0 {
				up[bits.TrailingZeros64(w)]++
				w &= w - 1
			}
		}
	}
	n := int64(e.N())
	for l := range e.mags {
		e.mags[l] = float64(2*up[l]-n) / float64(n)
	}
	e.magsStep = e.step
}

// Magnetizations returns the magnetisation per spin of every lane.
func (e *Engine) Magnetizations() []float64 {
	e.refreshMags()
	return append([]float64(nil), e.mags...)
}

// refreshEnergies recomputes the per-lane energies: each site's east and
// south bonds are compared wordwise and the per-lane disagreement bits
// accumulated, with the bonds that cross a shard boundary read directly from
// the neighbour shard on the host — Replicate has returned, so the shards are
// quiescent.
func (e *Engine) refreshEnergies() {
	if e.es != nil && e.esStep == e.step {
		return
	}
	if e.es == nil {
		e.es = make([]float64, e.lanes)
	}
	mask := e.kern.LaneMask()
	diff := make([]int64, e.lanes)
	mesh := e.pod.Mesh()
	for id, sh := range e.shards {
		x, y := mesh.Coord(id)
		eastSh := e.shards[mesh.ID(x+1, y)]
		southSh := e.shards[mesh.ID(x, y+1)]
		for r := 0; r < e.shardRows; r++ {
			row := e.rowWords(sh, r)
			south := e.rowWords(southSh, 0)
			if r < e.shardRows-1 {
				south = e.rowWords(sh, r+1)
			}
			for c := 0; c < e.shardCols; c++ {
				var east uint64
				if c+1 < e.shardCols {
					east = row[c+1]
				} else {
					east = e.rowWords(eastSh, r)[0]
				}
				de := (row[c] ^ east) & mask
				ds := (row[c] ^ south[c]) & mask
				for w := de; w != 0; w &= w - 1 {
					diff[bits.TrailingZeros64(w)]++
				}
				for w := ds; w != 0; w &= w - 1 {
					diff[bits.TrailingZeros64(w)]++
				}
			}
		}
	}
	n := int64(e.N())
	for l := range e.es {
		e.es[l] = -ising.J * float64(2*n-2*diff[l]) / float64(n)
	}
	e.esStep = e.step
}

// Energies returns the energy per spin of every lane.
func (e *Engine) Energies() []float64 {
	e.refreshEnergies()
	return append([]float64(nil), e.es...)
}

// shardAt returns the shard holding global site (row, col) and the site's
// local word index.
func (e *Engine) shardAt(row, col int) (*shard, int) {
	y, x := row/e.shardRows, col/e.shardCols
	sh := e.shards[e.pod.Mesh().ID(x, y)]
	return sh, (row-sh.rowOff)*e.shardCols + (col - sh.colOff)
}

// LaneSpin returns lane L's spin at global (row, col) as +-1 (no wrapping).
func (e *Engine) LaneSpin(lane, row, col int) int8 {
	sh, i := e.shardAt(row, col)
	if sh.words[i]>>uint(lane)&1 == 1 {
		return 1
	}
	return -1
}

// LaneLattice gathers one lane's configuration as an ising.Lattice.
func (e *Engine) LaneLattice(lane int) *ising.Lattice {
	l := ising.NewLattice(e.rows, e.cols)
	for _, sh := range e.shards {
		for r := 0; r < e.shardRows; r++ {
			row := e.rowWords(sh, r)
			base := (sh.rowOff+r)*e.cols + sh.colOff
			for c, w := range row {
				if w>>uint(lane)&1 == 0 {
					l.Spins[base+c] = -1
				}
			}
		}
	}
	return l
}

// SetLaneLattice scatters one lane's configuration over the shards.
func (e *Engine) SetLaneLattice(lane int, l *ising.Lattice) error {
	if l.Rows != e.rows || l.Cols != e.cols {
		return fmt.Errorf("shardedensemble: lattice is %dx%d, engine is %dx%d", l.Rows, l.Cols, e.rows, e.cols)
	}
	if lane < 0 || lane >= e.lanes {
		return fmt.Errorf("shardedensemble: lane %d out of range (engine has %d)", lane, e.lanes)
	}
	bit := uint64(1) << uint(lane)
	for _, sh := range e.shards {
		for r := 0; r < e.shardRows; r++ {
			row := e.rowWords(sh, r)
			base := (sh.rowOff+r)*e.cols + sh.colOff
			for c := range row {
				if l.Spins[base+c] == 1 {
					row[c] |= bit
				} else {
					row[c] &^= bit
				}
			}
		}
	}
	// The state changed without a step advance: drop the observable caches.
	e.mags, e.es = nil, nil
	return nil
}

// Hash returns an FNV-1a hash of the lane-packed configuration in global
// row-major site order (active lanes masked) — directly comparable with the
// hash of a standalone ensemble.Engine holding the same configuration.
func (e *Engine) Hash() uint64 {
	h := fnv.New64a()
	mask := e.kern.LaneMask()
	var buf [8]byte
	mesh := e.pod.Mesh()
	for gr := 0; gr < e.rows; gr++ {
		y := gr / e.shardRows
		for x := 0; x < e.gridC; x++ {
			sh := e.shards[mesh.ID(x, y)]
			for _, v := range e.rowWords(sh, gr-sh.rowOff) {
				v &= mask
				for i := 0; i < 8; i++ {
					buf[i] = byte(v >> (8 * i))
				}
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}
