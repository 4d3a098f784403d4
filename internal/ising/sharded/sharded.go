package sharded

import (
	"fmt"
	"hash/fnv"
	"math/bits"

	"tpuising/internal/device/metrics"
	"tpuising/internal/ising"
	"tpuising/internal/ising/multispin"
	"tpuising/internal/pod"
)

// WordBits is the number of lattice columns packed per machine word.
const WordBits = multispin.WordBits

// Config describes a sharded multispin engine.
type Config struct {
	// Rows and Cols are the global lattice dimensions. Rows must be even and
	// divisible by GridR; Cols must be divisible by GridC with every shard at
	// least one 64-column word wide.
	Rows, Cols int
	// GridR and GridC are the shard grid dimensions: GridR shards along the
	// row (north-south) axis, GridC along the column (east-west) axis,
	// GridR*GridC mesh cores in total (0 means 1).
	GridR, GridC int
	// Temperature is in units of J/kB (0 = the critical temperature).
	Temperature float64
	// Seed seeds the site-keyed Philox stream shared by all shards.
	Seed uint64
	// SharedRandom selects the cheap one-random-per-word multispin variant.
	SharedRandom bool
	// Initial is an optional starting configuration; cold (all +1) when nil.
	Initial *ising.Lattice
}

// shard is one core's sub-lattice plus its halo buffers.
type shard struct {
	spins   []uint64 // shardRows*shardWords, row-major, bit-packed like multispin
	rowOff  int      // global row index of local row 0
	wordOff int      // global word index of local word 0
	// north and south hold the neighbour rows received for the current
	// half-sweep; eastBits and westBits hold the received boundary bit
	// columns (bit r = the boundary spin of local row r).
	north, south       []uint64
	eastBits, westBits []uint64
	edge               []uint64          // scratch for building this shard's outgoing bit columns
	scratch            multispin.Scratch // per-shard mask/random scratch of the row kernel
}

// Engine is the mesh-sharded bit-packed sampler. It satisfies ising.Backend.
type Engine struct {
	rows, cols   int
	gridR, gridC int
	shardRows    int // rows per shard
	shardWords   int // 64-column words per shard row
	colWords     int // words of one packed boundary bit column
	pod          *pod.Pod
	shards       []*shard // indexed by core ID (row-major over the mesh grid)
	kern         multispin.Kernel
	temperature  float64
	step         uint64
	hostOps      int64                    // attempted spin updates (host work, not device-modelled)
	thresholds   multispin.ThresholdCache // memoized acceptance pairs for SetTemperature
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
		return nil, fmt.Errorf("sharded: shard grid must be positive, got %dx%d", cfg.GridR, cfg.GridC)
	}
	if cfg.Rows < 2 || cfg.Rows%2 != 0 {
		return nil, fmt.Errorf("sharded: rows must be even and >= 2, got %d", cfg.Rows)
	}
	if cfg.Rows%gridR != 0 {
		return nil, fmt.Errorf("sharded: %d rows do not divide over %d shard rows (want rows %% gridR == 0)",
			cfg.Rows, gridR)
	}
	if cfg.Cols <= 0 || cfg.Cols%WordBits != 0 {
		return nil, fmt.Errorf("sharded: cols must be a positive multiple of %d, got %d", WordBits, cfg.Cols)
	}
	if cfg.Cols%(gridC*WordBits) != 0 {
		return nil, fmt.Errorf(
			"sharded: %d cols do not divide over %d shard columns into whole %d-column words (want cols %% (gridC*%d) == 0)",
			cfg.Cols, gridC, WordBits, WordBits)
	}
	temp := cfg.Temperature
	if temp == 0 {
		temp = ising.CriticalTemperature()
	}
	if temp <= 0 {
		return nil, fmt.Errorf("sharded: temperature must be positive, got %g", temp)
	}
	e := &Engine{
		rows: cfg.Rows, cols: cfg.Cols,
		gridR: gridR, gridC: gridC,
		shardRows:   cfg.Rows / gridR,
		shardWords:  cfg.Cols / WordBits / gridC,
		temperature: temp,
		kern:        multispin.NewKernel(temp, cfg.Seed, cfg.SharedRandom),
		// Mesh X axis = shard columns, Y axis = shard rows, matching the
		// paper's mapping of the lattice onto the pod grid.
		pod: pod.New(gridC, gridR),
	}
	e.colWords = (e.shardRows + WordBits - 1) / WordBits
	e.shards = make([]*shard, e.pod.NumCores())
	for id := range e.shards {
		x, y := e.pod.Mesh().Coord(id)
		sh := &shard{
			spins:   make([]uint64, e.shardRows*e.shardWords),
			rowOff:  y * e.shardRows,
			wordOff: x * e.shardWords,
			edge:    make([]uint64, e.colWords),
		}
		for i := range sh.spins {
			sh.spins[i] = ^uint64(0) // cold start: all spins +1
		}
		e.shards[id] = sh
	}
	if cfg.Initial != nil {
		if err := e.SetLattice(cfg.Initial); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Name identifies the engine ("sharded" or "sharded-shared").
func (e *Engine) Name() string {
	if e.kern.Shared {
		return "sharded-shared"
	}
	return "sharded"
}

// Rows returns the global row count.
func (e *Engine) Rows() int { return e.rows }

// Cols returns the global column count.
func (e *Engine) Cols() int { return e.cols }

// N returns the number of spins.
func (e *Engine) N() int { return e.rows * e.cols }

// Grid returns the shard grid dimensions (rows, cols of shards).
func (e *Engine) Grid() (gridR, gridC int) { return e.gridR, e.gridC }

// NumShards returns the number of shards (= simulated mesh cores).
func (e *Engine) NumShards() int { return len(e.shards) }

// Step returns the number of colour updates performed so far.
func (e *Engine) Step() uint64 { return e.step }

// Temperature returns the current temperature.
func (e *Engine) Temperature() float64 { return e.temperature }

// SetTemperature changes the simulation temperature; the chain continues from
// the current configuration.
func (e *Engine) SetTemperature(t float64) {
	if t <= 0 {
		panic("sharded: temperature must be positive")
	}
	e.kern.SetThresholds(e.thresholds.For(t))
	e.temperature = t
}

// rowWords returns the packed words of one local row of a shard.
func (e *Engine) rowWords(sh *shard, r int) []uint64 {
	return sh.spins[r*e.shardWords : (r+1)*e.shardWords]
}

// westEdge packs bit 0 of the first word of every local row (the shard's
// westernmost spin column) into sh.edge and returns it.
func (e *Engine) westEdge(sh *shard) []uint64 {
	for i := range sh.edge {
		sh.edge[i] = 0
	}
	for r := 0; r < e.shardRows; r++ {
		sh.edge[r/WordBits] |= (sh.spins[r*e.shardWords] & 1) << (uint(r) % WordBits)
	}
	return sh.edge
}

// eastEdge packs bit 63 of the last word of every local row (the shard's
// easternmost spin column) into sh.edge and returns it.
func (e *Engine) eastEdge(sh *shard) []uint64 {
	for i := range sh.edge {
		sh.edge[i] = 0
	}
	for r := 0; r < e.shardRows; r++ {
		sh.edge[r/WordBits] |= (sh.spins[r*e.shardWords+e.shardWords-1] >> 63) << (uint(r) % WordBits)
	}
	return sh.edge
}

// exchangeHalos trades the four boundary halos with the mesh neighbours
// through the interconnect fabric: full packed rows north and south, packed
// single-spin bit columns east and west. Each call is four lockstep
// collective permutes; the received buffers are pre-update snapshots, which
// is exact because the colour update only consumes opposite-colour bits.
func (e *Engine) exchangeHalos(r *pod.Replica, sh *shard) {
	// Send my last row south; receive my north neighbour's last row.
	sh.north = r.ShiftExchangeWords(e.rowWords(sh, e.shardRows-1), 0, 1)
	// Send my first row north; receive my south neighbour's first row.
	sh.south = r.ShiftExchangeWords(e.rowWords(sh, 0), 0, -1)
	// Send my west column west; receive my east neighbour's west column.
	sh.eastBits = r.ShiftExchangeWords(e.westEdge(sh), -1, 0)
	// Send my east column east; receive my west neighbour's east column.
	sh.westBits = r.ShiftExchangeWords(e.eastEdge(sh), 1, 0)
}

// updateColor performs one Metropolis update of every site of one colour on
// one shard, using the freshly exchanged halos at the boundaries and the
// shared multispin kernel (keyed by global coordinates) in the interior.
func (e *Engine) updateColor(sh *shard, parity int, step uint64) {
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
		// The halo bit columns carry one spin per row; the kernel consumes
		// them as the wrap words' bit 0 (east) and bit 63 (west).
		eastWrap := (sh.eastBits[lr/WordBits] >> (uint(lr) % WordBits)) & 1
		westWrap := ((sh.westBits[lr/WordBits] >> (uint(lr) % WordBits)) & 1) << 63
		e.kern.UpdateRowScratch(row, north, south, westWrap, eastWrap,
			sh.rowOff+lr, sh.wordOff, parity, step, &sh.scratch)
	}
}

// Sweep performs one whole-lattice update: all shards exchange halos and
// update their black sites in lockstep, then exchange again and update the
// white sites, consuming two colour-step indices like the other engines.
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
	e.hostOps += int64(e.N())
}

// Run performs n sweeps.
func (e *Engine) Run(n int) {
	for i := 0; i < n; i++ {
		e.Sweep()
	}
}

// Counts reports the attempted spin updates in Ops (host work, like the other
// host engines) plus the pod-total interconnect traffic of the halo
// exchanges: CommBytes/CommEvents/CommHops summed over all mesh cores, which
// the perf model's ShardTraffic mirrors analytically.
func (e *Engine) Counts() metrics.Counts {
	total := e.pod.TotalCounts()
	return metrics.Counts{
		Ops:        e.hostOps,
		CommBytes:  total.CommBytes,
		CommEvents: total.CommEvents,
		CommHops:   total.CommHops,
	}
}

// Pod exposes the underlying simulated pod (for profiling and tests).
func (e *Engine) Pod() *pod.Pod { return e.pod }

// SumSpins returns the total spin.
func (e *Engine) SumSpins() int64 {
	ones := 0
	for _, sh := range e.shards {
		for _, v := range sh.spins {
			ones += bits.OnesCount64(v)
		}
	}
	return int64(2*ones) - int64(e.N())
}

// Magnetization returns the magnetisation per spin.
func (e *Engine) Magnetization() float64 {
	return float64(e.SumSpins()) / float64(e.N())
}

// Energy returns the energy per spin: every site's east and south bonds are
// compared bitwise (popcount of the disagreement words counts the frustrated
// bonds), with the bonds that cross a shard boundary read directly from the
// neighbour shard on the host — Replicate has returned, so the shards are
// quiescent.
func (e *Engine) Energy() float64 {
	mesh := e.pod.Mesh()
	diff := 0
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
			for w := 0; w < e.shardWords; w++ {
				var eastSrc uint64
				if w+1 < e.shardWords {
					eastSrc = row[w+1]
				} else {
					eastSrc = e.rowWords(eastSh, r)[0]
				}
				east := (row[w] >> 1) | (eastSrc << 63)
				diff += bits.OnesCount64(row[w] ^ east)
				diff += bits.OnesCount64(row[w] ^ south[w])
			}
		}
	}
	n := e.N()
	return -ising.J * float64(2*n-2*diff) / float64(n)
}

// Lattice gathers the sharded configuration into one global ising.Lattice.
func (e *Engine) Lattice() *ising.Lattice {
	l := ising.NewLattice(e.rows, e.cols)
	for _, sh := range e.shards {
		for r := 0; r < e.shardRows; r++ {
			row := e.rowWords(sh, r)
			gr := sh.rowOff + r
			for c := 0; c < e.shardWords*WordBits; c++ {
				if row[c/WordBits]>>(uint(c)%WordBits)&1 == 0 {
					l.Spins[gr*e.cols+sh.wordOff*WordBits+c] = -1
				}
			}
		}
	}
	return l
}

// SetLattice scatters a global configuration over the shards.
func (e *Engine) SetLattice(l *ising.Lattice) error {
	if l.Rows != e.rows || l.Cols != e.cols {
		return fmt.Errorf("sharded: lattice is %dx%d, engine is %dx%d", l.Rows, l.Cols, e.rows, e.cols)
	}
	for _, sh := range e.shards {
		for r := 0; r < e.shardRows; r++ {
			row := e.rowWords(sh, r)
			gr := sh.rowOff + r
			for w := range row {
				row[w] = 0
			}
			for c := 0; c < e.shardWords*WordBits; c++ {
				if l.Spins[gr*e.cols+sh.wordOff*WordBits+c] == 1 {
					row[c/WordBits] |= 1 << (uint(c) % WordBits)
				}
			}
		}
	}
	return nil
}

// Spin returns the spin at global (row, col) as +-1 (no wrapping).
func (e *Engine) Spin(row, col int) int8 {
	y, x := row/e.shardRows, col/(e.shardWords*WordBits)
	sh := e.shards[e.pod.Mesh().ID(x, y)]
	lr, lc := row-sh.rowOff, col-sh.wordOff*WordBits
	if e.rowWords(sh, lr)[lc/WordBits]>>(uint(lc)%WordBits)&1 == 1 {
		return 1
	}
	return -1
}

// Hash returns an FNV-1a hash of the global packed configuration in
// whole-lattice word order, so it is directly comparable with the hash of a
// multispin.Engine holding the same configuration.
func (e *Engine) Hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	mesh := e.pod.Mesh()
	for gr := 0; gr < e.rows; gr++ {
		y := gr / e.shardRows
		for x := 0; x < e.gridC; x++ {
			sh := e.shards[mesh.ID(x, y)]
			for _, v := range e.rowWords(sh, gr-sh.rowOff) {
				for i := 0; i < 8; i++ {
					buf[i] = byte(v >> (8 * i))
				}
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}
