package multispin

import (
	"math/rand"
	"testing"

	"tpuising/internal/rng"
)

// TestUpdateRowGoldenEquivalence is the golden bit-equivalence property test
// of the kernel variants: for random (rows, cols, seed, parity, shared,
// temperature, step, wordOff) tuples, the optimized UpdateRowScratch path
// (tiled + fused Philox accept masks; the AVX2 kernel when the binary is
// built with -tags avx2 on an AVX2 machine) must produce exactly the spins
// of UpdateRowRef, the retained naive reference. One scratch serves every
// trial, so both its first use and its reuse across row widths are covered. CI runs it under
// -race and under both build-tag combinations; rng.HasAVX2 names the variant
// actually exercised.
func TestUpdateRowGoldenEquivalence(t *testing.T) {
	t.Logf("avx2 kernels active: %v", rng.HasAVX2())
	prng := rand.New(rand.NewSource(20260808))
	var sc Scratch
	for trial := 0; trial < 200; trial++ {
		W := 1 + prng.Intn(tileWords*2+3) // 1..131 words: tails, tile boundaries, multi-tile
		shared := prng.Intn(2) == 1
		parity := prng.Intn(2)
		globalRow := prng.Intn(1 << 20)
		wordOff := prng.Intn(1 << 20)
		step := prng.Uint64() >> uint(prng.Intn(40))
		seed := prng.Uint64()
		temp := 0.5 + 4*prng.Float64()
		k := NewKernel(temp, seed, shared)

		rowRef := make([]uint64, W)
		north := make([]uint64, W)
		south := make([]uint64, W)
		for i := 0; i < W; i++ {
			rowRef[i] = prng.Uint64()
			north[i] = prng.Uint64()
			south[i] = prng.Uint64()
		}
		westWrap, eastWrap := prng.Uint64(), prng.Uint64()

		rowSc := append([]uint64(nil), rowRef...)

		k.UpdateRowRef(rowRef, north, south, westWrap, eastWrap, globalRow, wordOff, parity, step)
		k.UpdateRowScratch(rowSc, north, south, westWrap, eastWrap, globalRow, wordOff, parity, step, &sc)

		for i := 0; i < W; i++ {
			if rowSc[i] != rowRef[i] {
				t.Fatalf("trial %d (W=%d shared=%v parity=%d row=%d wordOff=%d step=%d): UpdateRowScratch word %d = %#x, reference %#x",
					trial, W, shared, parity, globalRow, wordOff, step, i, rowSc[i], rowRef[i])
			}
		}
	}
}

// TestEngineSweepMatchesReferenceKernel drives whole engine sweeps and
// replays them with the reference kernel row by row: the engine's optimized
// hot loop (including its rolling-west and halo-snapshot invariants) is
// bit-identical to the naive kernel applied to the same rows.
func TestEngineSweepMatchesReferenceKernel(t *testing.T) {
	for _, shared := range []bool{false, true} {
		eng, err := New(Config{Rows: 16, Cols: 192, Temperature: 2.4, Seed: 99, SharedRandom: shared})
		if err != nil {
			t.Fatal(err)
		}
		// Reference state: same geometry, updated with UpdateRowRef directly.
		ref := append([]uint64(nil), eng.spins...)
		k := eng.kern
		W := eng.words
		refRow := func(r int) []uint64 { return ref[r*W : (r+1)*W] }
		for sweep := 0; sweep < 5; sweep++ {
			step := eng.step
			eng.Sweep()
			for _, pc := range []struct {
				parity int
				step   uint64
			}{{0, step}, {1, step + 1}} {
				for r := 0; r < eng.rows; r++ {
					row := refRow(r)
					north := refRow((r - 1 + eng.rows) % eng.rows)
					south := refRow((r + 1) % eng.rows)
					k.UpdateRowRef(row, north, south, row[W-1], row[0], r, 0, pc.parity, pc.step)
				}
			}
		}
		for i := range ref {
			if eng.spins[i] != ref[i] {
				t.Fatalf("shared=%v: engine word %d = %#x, reference replay %#x", shared, i, eng.spins[i], ref[i])
			}
		}
	}
}

// BenchmarkUpdateRow benchmarks the optimized per-site row kernel against the
// retained reference on a 4096-column row (64 words), the before/after pair
// of the PR-10 vectorization. Flip throughput: 32 active sites per word.
func BenchmarkUpdateRow(b *testing.B) {
	benchRow(b, false, false)
}

func BenchmarkUpdateRowRef(b *testing.B) {
	benchRow(b, false, true)
}

func BenchmarkUpdateRowShared(b *testing.B) {
	benchRow(b, true, false)
}

func BenchmarkUpdateRowSharedRef(b *testing.B) {
	benchRow(b, true, true)
}

func benchRow(b *testing.B, shared, ref bool) {
	const W = 64
	k := NewKernel(2.4, 7, shared)
	row := make([]uint64, W)
	north := make([]uint64, W)
	south := make([]uint64, W)
	for i := range row {
		row[i] = 0xAAAA5555AAAA5555 * uint64(i+1)
		north[i] = ^row[i]
		south[i] = row[i] >> 3
	}
	var sc Scratch
	b.SetBytes(W * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ref {
			k.UpdateRowRef(row, north, south, row[W-1], row[0], 5, 0, 0, uint64(i))
		} else {
			k.UpdateRowScratch(row, north, south, row[W-1], row[0], 5, 0, 0, uint64(i), &sc)
		}
	}
}
