package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"tpuising/internal/ising"
	"tpuising/internal/ising/backend"
	"tpuising/internal/ising/multispin"
	"tpuising/internal/rng"
)

// persite-4096: one per-site multispin chain through backend.New, 4096²,
// hot start at T = 2.5, Workers = nproc. The rng → row kernel → engine path
// alone: no lanes, no shards, no service.
const (
	persiteSize = 4096
	persiteTemp = 2.5
	// persiteEnergyBand is the allowed distance of the final energy per spin
	// from Onsager's exact value at T = 2.5. At 4096² the equilibrium
	// fluctuation is ~5e-4 and a hot start relaxes within tens of sweeps.
	persiteEnergyBand = 0.01
	// refCheckSweeps is how many final sweeps the retained reference kernel
	// replays from the timed chain's own state.
	refCheckSweeps = 2
)

type persite struct {
	seed    uint64
	workers int
	eng     *multispin.Engine
}

func newPersite(seed uint64) *persite {
	return &persite{seed: seed, workers: runtime.NumCPU()}
}

func (p *persite) identity() identity {
	return identity{
		Workload: "persite-4096", Mode: "per-site",
		Lattice: fmt.Sprintf("%dx%d", persiteSize, persiteSize), Lanes: 1, ShardGrid: "1x1",
		Workers: p.workers,
	}
}

func (p *persite) setup() error {
	p.eng = nil
	b, err := backend.New("multispin", backend.Config{
		Rows: persiteSize, Cols: persiteSize, Temperature: persiteTemp,
		Seed: p.seed, Workers: p.workers, Hot: true,
	})
	if err != nil {
		return err
	}
	eng, ok := b.(*multispin.Engine)
	if !ok {
		return fmt.Errorf("persite: backend.New(multispin) built %T, want *multispin.Engine", b)
	}
	p.eng = eng
	return nil
}

// run times whole-lattice sweeps until the budget is spent and at least
// minJobs sweeps are done.
func (p *persite) run(tr *tracer, parent int, budget time.Duration, minJobs int) pass {
	var ps pass
	flipsPerSweep := float64(persiteSize * persiteSize)
	start := time.Now()
	for time.Since(start) < budget || len(ps.ops) < minJobs {
		id := tr.begin("multispin.sweep", parent)
		t := time.Now()
		p.eng.Sweep()
		ps.ops = append(ps.ops, time.Since(t))
		tr.end(id)
		ps.flips += flipsPerSweep
	}
	ps.wall = time.Since(start)
	return ps
}

// check replays the chain's last refCheckSweeps sweeps with the retained
// reference kernel (UpdateRowRef, keyed from the seed alone) from the timed
// chain's own state, compares the final hashes, and checks the energy per
// spin against the exact solution.
func (p *persite) check(c *checks) { c.checkedRun(func() { p.verify(c) }) }

func (p *persite) verify(c *checks) {
	snap, err := p.eng.Snapshot()
	if err != nil {
		c.fail("persite: snapshot: %v", err)
		return
	}
	words := make([]uint64, len(snap.Spins)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(snap.Spins[i*8:])
	}
	kern := multispin.NewKernel(persiteTemp, p.seed, false)
	refSweeps(kern, words, persiteSize, persiteSize/multispin.WordBits, snap.Step, refCheckSweeps)
	p.eng.Run(refCheckSweeps)
	if got, want := p.eng.Hash(), wordsHash(words); got != want {
		c.fail("persite: engine hash %016x after step %d, retained reference %016x", got, p.eng.Step(), want)
	}
	e, exact := p.eng.Energy(), ising.ExactEnergyPerSpin(persiteTemp)
	if math.Abs(e-exact) > persiteEnergyBand {
		c.fail("persite: energy per spin %.5f is outside %.5f ± %g", e, exact, persiteEnergyBand)
	}
}

// refSweeps runs n whole-lattice sweeps of the retained reference kernel over
// packed rows (W words each) from colour step `step`, row by row on one
// thread with live neighbour rows — the engine's single-band schedule.
func refSweeps(kern multispin.Kernel, words []uint64, rows, W int, step uint64, n int) {
	for s := 0; s < n; s++ {
		for parity := 0; parity < 2; parity++ {
			for r := 0; r < rows; r++ {
				row := words[r*W : (r+1)*W]
				north := words[((r-1+rows)%rows)*W:][:W]
				south := words[((r+1)%rows)*W:][:W]
				kern.UpdateRowRef(row, north, south, row[W-1], row[0], r, 0, parity, step+uint64(parity))
			}
		}
		step += 2
	}
}

// wordsHash is multispin.Engine.Hash over a bare word slice: FNV-1a of the
// little-endian words.
func wordsHash(words []uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range words {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// persiteLayers replays the chain's own rows, single-threaded, through the
// public row-level entry points: rng.BlockRow for one colour's draws,
// UpdateRowScratch and the retained UpdateRowRef. Self times follow by
// subtraction: kernel − rng, and engine sweep − kernel ÷ workers.
func (p *persite) layers(spans []span, m map[string]float64) error {
	snap, err := p.eng.Snapshot()
	if err != nil {
		return fmt.Errorf("persite layers: %w", err)
	}
	const W = persiteSize / multispin.WordBits
	words := make([]uint64, len(snap.Spins)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(snap.Spins[i*8:])
	}
	kern := multispin.NewKernel(persiteTemp, p.seed, false)
	step := snap.Step
	rows := persiteSize

	// One colour of one row draws 32 uint32 per word, W words, at counters
	// (step, row, 8*word) — one BlockRow call per row for a 64-word row.
	draws := make([]uint32, W*32)
	rngPass := medianOf(3, func() time.Duration {
		t := time.Now()
		for r := 0; r < rows; r++ {
			rng.BlockRow(draws, rng.Counter{uint32(step), uint32(step >> 32), uint32(r), 0}, kern.Key)
		}
		return time.Since(t)
	})
	rngRowNs := float64(rngPass.Nanoseconds()) / float64(rows)
	m["rng.blockrow_words_per_ns"] = float64(len(draws)) / rngRowNs

	work := make([]uint64, len(words))
	var sc multispin.Scratch
	kernelSweep := medianOf(3, func() time.Duration {
		copy(work, words)
		t := time.Now()
		for parity := 0; parity < 2; parity++ {
			for r := 0; r < rows; r++ {
				row := work[r*W : (r+1)*W]
				north := work[((r-1+rows)%rows)*W:][:W]
				south := work[((r+1)%rows)*W:][:W]
				kern.UpdateRowScratch(row, north, south, row[W-1], row[0], r, 0, parity, step+uint64(parity), &sc)
			}
		}
		return time.Since(t)
	})
	copy(work, words)
	t := time.Now()
	refSweeps(kern, work, rows, W, step, 1)
	refSweep := time.Since(t)

	flips := float64(persiteSize * persiteSize)
	kernelRowNs := float64(kernelSweep.Nanoseconds()) / float64(2*rows)
	m["multispin.kernel_flips_per_ns"] = flips / float64(kernelSweep.Nanoseconds())
	m["multispin.ref_flips_per_ns"] = flips / float64(refSweep.Nanoseconds())
	m["multispin.row_us"] = kernelRowNs / 1e3
	m["multispin.compare_frac"] = (kernelRowNs - rngRowNs) / kernelRowNs

	sweeps := durationsNamed(spans, "multispin.sweep")
	p50 := median(sweeps)
	m["multispin.sweep_ms_p50"] = p50
	m["multispin.sweep_ms_p99"] = quantile(sweeps, 0.99)
	m["multispin.parallel_eff"] = float64(kernelSweep.Nanoseconds()) / 1e6 / (float64(p.workers) * p50)
	return nil
}
