package main

import (
	"fmt"
	"runtime"
	"time"

	"tpuising/internal/interconnect"
	"tpuising/internal/ising"
	"tpuising/internal/ising/backend"
	"tpuising/internal/ising/ensemble"
	"tpuising/internal/ising/multispin"
	"tpuising/internal/ising/shardedensemble"
	"tpuising/internal/perf"
	"tpuising/internal/pod"
	"tpuising/internal/rng"
	"tpuising/internal/tempering"
)

// ladder-sharded: a 64-rung tempering ladder centred on T_c, 256² per lane,
// lane-packed on a 2x1 pod grid of sharded-ensemble shards, swapping every
// 10 sweeps. The multi-core path: BlockLanes and the ensemble kernel per
// shard, halo exchange over the mesh, replica exchange on top.
const (
	ladderRungs        = 64
	ladderSize         = 256
	ladderGridR        = 2
	ladderGridC        = 1
	ladderSwapInterval = 10
)

type ladder struct {
	seed    uint64
	workers int
	temps   []float64
	eng     *shardedensemble.Engine
	ens     *tempering.Ensemble
	rounds  int
	// comm counters at the start of the last pass, for per-sweep traffic.
	commBytes, commEvents int64
	sweepsAtPass          uint64
}

func newLadder(seed uint64) *ladder {
	tc := ising.CriticalTemperature()
	w := tempering.DefaultWindow(ladderSize*ladderSize, ladderRungs)
	temps := make([]float64, ladderRungs)
	for i := range temps {
		temps[i] = tc * (1 - w + 2*w*float64(i)/float64(ladderRungs-1))
	}
	return &ladder{seed: seed, workers: runtime.NumCPU(), temps: temps}
}

func (l *ladder) identity() identity {
	return identity{
		Workload: "ladder-sharded", Mode: "per-site",
		Lattice: fmt.Sprintf("%dx%d", ladderSize, ladderSize), Lanes: ladderRungs,
		ShardGrid: fmt.Sprintf("%dx%d", ladderGridR, ladderGridC), Workers: l.workers,
	}
}

// build constructs a ladder over the named batch backend.
func (l *ladder) build(name string, gridR, gridC int) (ising.BatchBackend, *tempering.Ensemble, error) {
	batch, err := backend.NewBatchLadder(name, backend.Config{
		Rows: ladderSize, Cols: ladderSize, Seed: l.seed, Workers: l.workers,
		GridR: gridR, GridC: gridC, Hot: true,
	}, l.temps)
	if err != nil {
		return nil, nil, err
	}
	ens, err := tempering.NewBatch(tempering.Config{
		Temperatures: l.temps, SwapInterval: ladderSwapInterval, Seed: l.seed, Workers: l.workers,
	}, batch)
	if err != nil {
		return nil, nil, err
	}
	return batch, ens, nil
}

func (l *ladder) setup() error {
	l.eng, l.ens, l.rounds = nil, nil, 0
	batch, ens, err := l.build("sharded-ensemble", ladderGridR, ladderGridC)
	if err != nil {
		return err
	}
	eng, ok := batch.(*shardedensemble.Engine)
	if !ok {
		return fmt.Errorf("ladder: NewBatchLadder(sharded-ensemble) built %T, want *shardedensemble.Engine", batch)
	}
	l.eng, l.ens = eng, ens
	return nil
}

// run times tempering rounds (SwapInterval sweeps, a swap phase and a
// measurement) until the budget is spent and at least minJobs are done.
func (l *ladder) run(tr *tracer, parent int, budget time.Duration, minJobs int) pass {
	var ps pass
	c := l.eng.Counts()
	l.commBytes, l.commEvents, l.sweepsAtPass = c.CommBytes, c.CommEvents, l.eng.Step()/2
	flipsPerRound := float64(ladderSwapInterval * ladderRungs * ladderSize * ladderSize)
	sweepOnce := func() { l.ens.SweepReplicas(1) }
	start := time.Now()
	for time.Since(start) < budget || len(ps.ops) < minJobs {
		id := tr.begin("tempering.round", parent)
		t := time.Now()
		for i := 0; i < ladderSwapInterval; i++ {
			tr.do("shardedensemble.sweep", id, sweepOnce)
		}
		tr.do("tempering.swap", id, l.ens.AttemptSwaps)
		tr.do("tempering.measure", id, l.ens.Measure)
		ps.ops = append(ps.ops, time.Since(t))
		tr.end(id)
		ps.flips += flipsPerRound
	}
	ps.wall = time.Since(start)
	l.rounds += len(ps.ops)
	return ps
}

// check cross-checks the measured halo traffic against the analytic model,
// then replays the whole ladder on the standalone lane-packed ensemble engine
// and requires every lane, the slot permutation and the swap counters to be
// identical.
func (l *ladder) check(c *checks) { c.checkedRun(func() { l.verify(c) }) }

func (l *ladder) verify(c *checks) {
	sweeps := int64(l.eng.Step() / 2)
	model := perf.ShardedEnsembleTraffic(perf.ShardedEnsembleSpec{
		Rows: ladderSize, Cols: ladderSize, GridR: ladderGridR, GridC: ladderGridC, Lanes: ladderRungs,
	}, interconnect.DefaultLinkParams())
	got := l.eng.Counts()
	if got.CommBytes != model.TotalBytes*sweeps || got.CommEvents != model.Events*sweeps {
		c.fail("ladder: halo traffic %d bytes / %d msgs over %d sweeps, model %d / %d",
			got.CommBytes, got.CommEvents, sweeps, model.TotalBytes*sweeps, model.Events*sweeps)
	}

	refBatch, ref, err := l.build("multispin", 1, 1)
	if err != nil {
		c.fail("ladder: building the reference ensemble: %v", err)
		return
	}
	refEng, ok := refBatch.(*ensemble.Engine)
	if !ok {
		c.fail("ladder: reference ladder built %T, want *ensemble.Engine", refBatch)
		return
	}
	for i := 0; i < l.rounds; i++ {
		ref.Round()
		ref.Measure()
	}
	if refEng.Step() != l.eng.Step() {
		c.fail("ladder: reference at step %d, sharded ladder at %d", refEng.Step(), l.eng.Step())
		return
	}
	var differ []int
	for lane := 0; lane < ladderRungs; lane++ {
		a, b := l.eng.LaneLattice(lane), refEng.LaneLattice(lane)
		for i := range a.Spins {
			if a.Spins[i] != b.Spins[i] {
				differ = append(differ, lane)
				break
			}
		}
	}
	if len(differ) > 0 {
		c.fail("ladder: %d of %d lanes differ from the standalone ensemble: %v", len(differ), ladderRungs, differ)
	}
	pa, pb := l.ens.Permutation(), ref.Permutation()
	for t := range pa {
		if pa[t] != pb[t] {
			c.fail("ladder: slot %d holds walker %d, reference walker %d", t, pa[t], pb[t])
			break
		}
	}
	ra, rb := l.ens.Report(), ref.Report()
	if ra.SwapAccepts != rb.SwapAccepts || ra.SwapAttempts != rb.SwapAttempts {
		c.fail("ladder: swaps %d/%d, reference %d/%d", ra.SwapAccepts, ra.SwapAttempts, rb.SwapAccepts, rb.SwapAttempts)
	}
}

// layers replays the ladder's own lattice, single-threaded, through the
// lane-level entry points (rng.BlockLanes, the ensemble kernel and its
// retained reference) and the pod's ShiftExchangeWords, and reads the
// sharded sweep, swap and measure spans of the traced pass. The sharded
// sweep's self time is sweep − per-shard kernel.
func (l *ladder) layers(spans []span, m map[string]float64) error {
	words := make([]uint64, ladderSize*ladderSize)
	temps := make([]float64, ladderRungs)
	for lane := 0; lane < ladderRungs; lane++ {
		temps[lane] = l.eng.LaneTemperature(lane)
		lat := l.eng.LaneLattice(lane)
		for i, s := range lat.Spins {
			if s == 1 {
				words[i] |= 1 << uint(lane)
			}
		}
	}
	kern, err := ensemble.NewKernel(l.seed, temps, false)
	if err != nil {
		return fmt.Errorf("ladder layers: %w", err)
	}
	step := l.eng.Step()

	// One colour of one row draws one block per lane for each of the row's
	// eight-column groups.
	k0s, k1s := make([]uint32, ladderRungs), make([]uint32, ladderRungs)
	for lane := range k0s {
		key := multispin.NewKernel(temps[lane], ising.LaneSeed(l.seed, lane), false).Key
		k0s[lane], k1s[lane] = key[0], key[1]
	}
	draws := make([]uint32, 4*ladderRungs)
	const groups = ladderSize / 8
	rngPass := medianOf(5, func() time.Duration {
		t := time.Now()
		for r := 0; r < ladderSize; r++ {
			for g := 0; g < groups; g++ {
				rng.BlockLanes(draws, rng.Counter{uint32(step), uint32(step >> 32), uint32(r), uint32(g)}, k0s, k1s)
			}
		}
		return time.Since(t)
	})
	m["rng.blocklanes_words_per_ns"] = float64(ladderSize*groups*len(draws)) / float64(rngPass.Nanoseconds())

	// A sweep of the first `rows` rows (both colours), single-threaded. With
	// rows = ladderSize it is the whole lattice; with one shard's rows it is
	// the kernel work each pod core does per sweep, on a shard-sized
	// working set.
	work := make([]uint64, len(words))
	var sc ensemble.Scratch
	const n = ladderSize
	sweep := func(ref bool, rows int) time.Duration {
		copy(work, words)
		t := time.Now()
		for parity := 0; parity < 2; parity++ {
			for r := 0; r < rows; r++ {
				row := work[r*n : (r+1)*n]
				north := work[((r-1+n)%n)*n:][:n]
				south := work[((r+1)%n)*n:][:n]
				if ref {
					kern.UpdateRowRef(row, north, south, row[n-1], row[0], r, 0, parity, step+uint64(parity))
				} else {
					kern.UpdateRow(row, north, south, row[n-1], row[0], r, 0, parity, step+uint64(parity), &sc)
				}
			}
		}
		return time.Since(t)
	}
	kernelSweep := medianOf(3, func() time.Duration { return sweep(false, n) })
	refSweep := medianOf(1, func() time.Duration { return sweep(true, n) })
	shardSweep := medianOf(5, func() time.Duration { return sweep(false, n/ladderGridR) })
	flips := float64(ladderRungs * ladderSize * ladderSize)
	m["ensemble.kernel_flips_per_ns"] = flips / float64(kernelSweep.Nanoseconds())
	m["ensemble.ref_flips_per_ns"] = flips / float64(refSweep.Nanoseconds())

	sweeps := durationsNamed(spans, "shardedensemble.sweep")
	p50 := median(sweeps)
	m["shardedensemble.sweep_ms_p50"] = p50
	m["shardedensemble.sweep_ms_p99"] = quantile(sweeps, 0.99)
	m["shardedensemble.halo_frac"] = (p50 - float64(shardSweep.Nanoseconds())/1e6) / p50

	haloUs, err := haloRoundUs()
	if err != nil {
		return err
	}
	m["pod.halo_us"] = haloUs
	c := l.eng.Counts()
	passSweeps := float64(l.eng.Step()/2 - l.sweepsAtPass)
	m["pod.halo_bytes_per_sweep"] = float64(c.CommBytes-l.commBytes) / passSweeps
	m["pod.halo_msgs_per_sweep"] = float64(c.CommEvents-l.commEvents) / passSweeps

	m["tempering.swap_us"] = median(durationsNamed(spans, "tempering.swap")) * 1e3
	m["tempering.measure_us"] = median(durationsNamed(spans, "tempering.measure")) * 1e3
	m["tempering.swap_accept"] = l.ens.Report().Acceptance()
	return nil
}

// haloRoundUs times one halo round of the ladder's shard geometry on a
// fresh 2-shard pod: the four ShiftExchangeWords calls of a half-sweep
// (boundary rows north and south, boundary columns east and west), all
// replicas in lockstep. It returns the median per-round time in µs.
func haloRoundUs() (float64, error) {
	const rounds = 200
	shardRows, shardCols := ladderSize/ladderGridR, ladderSize/ladderGridC
	p := pod.New(ladderGridC, ladderGridR)
	rowBuf := make([][]uint64, p.NumCores())
	colBuf := make([][]uint64, p.NumCores())
	for i := range rowBuf {
		rowBuf[i] = make([]uint64, shardCols)
		colBuf[i] = make([]uint64, shardRows)
	}
	var runErr error
	d := medianOf(5, func() time.Duration {
		t := time.Now()
		err := p.Replicate(func(r *pod.Replica) error {
			for i := 0; i < rounds; i++ {
				r.ShiftExchangeWords(rowBuf[r.ID], 0, 1)
				r.ShiftExchangeWords(rowBuf[r.ID], 0, -1)
				r.ShiftExchangeWords(colBuf[r.ID], -1, 0)
				r.ShiftExchangeWords(colBuf[r.ID], 1, 0)
			}
			return nil
		})
		if err != nil {
			runErr = err
		}
		return time.Since(t)
	})
	if runErr != nil {
		return 0, fmt.Errorf("halo replay: %w", runErr)
	}
	return float64(d.Nanoseconds()) / rounds / 1e3, nil
}
