package tempering

import (
	"reflect"
	"testing"

	"tpuising/internal/ising"
	"tpuising/internal/ising/backend"
	"tpuising/internal/ising/ensemble"
)

// ladderOf returns a small ascending ladder for the batch tests.
func ladderOf(n int) []float64 {
	temps := make([]float64, n)
	for i := range temps {
		temps[i] = 2.0 + 0.2*float64(i)
	}
	return temps
}

// runBoth drives two ensembles through the same schedule and returns their
// reports.
func runBoth(a, b *Ensemble, burn, sample int) (Report, Report) {
	a.RunRounds(burn)
	b.RunRounds(burn)
	a.Sample(sample)
	b.Sample(sample)
	return a.Report(), b.Report()
}

// TestBatchLadderBitIdenticalToClassic is the acceptance check of the
// lane-packed tempering path: a ladder over the ensemble engine must
// reproduce the classic ladder of separate multispin replicas exactly — the
// same swap decisions, permutation, per-rung observables, swap counters and
// work counters — because lane L and replica L are the same chain
// (ReplicaSeed == ising.LaneSeed) and the swap stream is keyed by (seed,
// round, pair) either way.
func TestBatchLadderBitIdenticalToClassic(t *testing.T) {
	const rows, cols, seed = 8, 64, 21
	temps := ladderOf(4)
	cfg := Config{Temperatures: temps, SwapInterval: 2, Seed: seed}
	classic, err := separateLadder(cfg, func(slot int, temperature float64) (ising.Backend, error) {
		return backend.New("multispin", backend.Config{
			Rows: rows, Cols: cols, Temperature: temperature, Seed: ReplicaSeed(seed, slot),
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := ensemble.New(ensemble.Config{
		Rows: rows, Cols: cols, Lanes: len(temps), Temperatures: temps, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := NewBatch(cfg, packed)
	if err != nil {
		t.Fatal(err)
	}
	repA, repB := runBoth(classic, batched, 3, 8)
	if !reflect.DeepEqual(repA, repB) {
		t.Fatalf("batched ladder report differs from classic:\nclassic: %+v\nbatched: %+v", repA, repB)
	}
	if !reflect.DeepEqual(classic.Permutation(), batched.Permutation()) {
		t.Fatalf("permutation differs: %v vs %v", classic.Permutation(), batched.Permutation())
	}
	if classic.SwapCounts() != batched.SwapCounts() {
		t.Fatalf("swap counters differ: %+v vs %+v", classic.SwapCounts(), batched.SwapCounts())
	}
	if classic.Counts() != batched.Counts() {
		t.Fatalf("work counters differ: %+v vs %+v", classic.Counts(), batched.Counts())
	}
	// The lane views must report the slot observables the classic backends do.
	for slot := range temps {
		if batched.Backend(slot).Magnetization() != classic.Backend(slot).Magnetization() {
			t.Fatalf("slot %d lane view magnetisation differs", slot)
		}
	}
}

// TestBatchLadderOverAdapter: the lanes backend.NewLanes builds must be the
// replicas a caller builds slot by slot with ReplicaSeed — the same chains,
// so the same ladder bit for bit. It pins the seed rule NewLanes callers
// rely on for engines without a lane-packed form.
func TestBatchLadderOverAdapter(t *testing.T) {
	const rows, cols, seed = 8, 8, 5
	temps := ladderOf(3)
	cfg := Config{Temperatures: temps, SwapInterval: 1, Seed: seed}
	classic, err := separateLadder(cfg, func(slot int, temperature float64) (ising.Backend, error) {
		return backend.New("checkerboard", backend.Config{
			Rows: rows, Cols: cols, Temperature: temperature, Seed: ReplicaSeed(seed, slot),
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	lanes, err := backend.NewLanes("checkerboard", backend.Config{Rows: rows, Cols: cols, Seed: seed}, temps)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := NewBatch(cfg, lanes)
	if err != nil {
		t.Fatal(err)
	}
	repA, repB := runBoth(classic, batched, 2, 6)
	if !reflect.DeepEqual(repA, repB) {
		t.Fatalf("NewLanes ladder report differs from classic:\nclassic: %+v\nbatched: %+v", repA, repB)
	}
}

// TestNewBatchValidation: lane-count mismatches and already-swept batches
// are refused.
func TestNewBatchValidation(t *testing.T) {
	temps := ladderOf(3)
	cfg := Config{Temperatures: temps, Seed: 1}
	wrong, err := ensemble.New(ensemble.Config{Rows: 8, Cols: 64, Lanes: 2, Temperature: 2.0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBatch(cfg, wrong); err == nil {
		t.Error("lane/rung mismatch accepted")
	}
	swept, err := ensemble.New(ensemble.Config{Rows: 8, Cols: 64, Lanes: 3, Temperature: 2.0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	swept.Sweep()
	if _, err := NewBatch(cfg, swept); err == nil {
		t.Error("already-swept batch accepted")
	}
}
