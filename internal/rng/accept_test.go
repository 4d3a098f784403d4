package rng

import (
	"math/rand"
	"testing"
)

// acceptThresholds are the edge thresholds every accept-kernel test covers —
// never (0), only u = 0 (1), the sign-flip boundary (2^31), all but
// u = 2^32-1 (2^32-1) and always (2^32) — followed by thresholds at and just
// above drawn randoms, so the compare is exercised at u == t-1 and u == t.
func acceptThresholds(draws []uint32) []uint64 {
	ts := []uint64{0, 1, 1 << 31, 1<<32 - 1, 1 << 32}
	for i := 0; i < len(draws) && i < 4; i++ {
		u := uint64(draws[(i*7919)%len(draws)])
		ts = append(ts, u, u+1)
	}
	return ts
}

// wantAcceptRow is the reference AcceptRow: BlockRow plus the scalar compare.
func wantAcceptRow(n int, ctr Counter, key Key, t4, t8 uint64, p uint) (a4, a8 []uint64) {
	rnd := make([]uint32, 32*n)
	BlockRow(rnd, ctr, key)
	a4, a8 = make([]uint64, n), make([]uint64, n)
	for w := 0; w < n; w++ {
		for j := 0; j < 32; j++ {
			u := uint64(rnd[32*w+j])
			if u < t4 {
				a4[w] |= 1 << (uint(2*j) + p)
			}
			if u < t8 {
				a8[w] |= 1 << (uint(2*j) + p)
			}
		}
	}
	return a4, a8
}

// TestAcceptRowGolden pins AcceptRow (the AVX2 body when built with -tags
// avx2 on an AVX2 machine) and its portable loop to BlockRow plus the scalar
// compare: edge thresholds, both parities, word counts off the multiple of
// 8, and a low counter word that wraps mid-row.
func TestAcceptRowGolden(t *testing.T) {
	t.Logf("avx2 kernels active: %v", HasAVX2())
	key := Key{0xDEADBEEF, 0x1BD11BDA}
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 13, 64, 67} {
		for _, ctr := range []Counter{
			{0, 0, 0, 0},
			{5, 6, 7, 8 * 1000},
			{0xFFFFFFFF, 0x12345678, 0x9ABCDEF0, 1<<32 - 8*3 - 5}, // wraps in word 3
		} {
			draws := make([]uint32, 32*max(n, 1))
			BlockRow(draws, ctr, key)
			ts := acceptThresholds(draws)
			for i, t4 := range ts {
				t8 := ts[(i+3)%len(ts)]
				for p := uint(0); p < 2; p++ {
					want4, want8 := wantAcceptRow(n, ctr, key, t4, t8, p)
					for _, impl := range []struct {
						name string
						run  func(a4, a8 []uint64)
					}{
						{"AcceptRow", func(a4, a8 []uint64) { AcceptRow(a4, a8, ctr, key, t4, t8, p) }},
						{"acceptRowGeneric", func(a4, a8 []uint64) { acceptRowGeneric(a4, a8, ctr, key, t4, t8, p) }},
					} {
						a4, a8 := make([]uint64, n), make([]uint64, n)
						for w := range a4 {
							a4[w], a8[w] = ^uint64(0), ^uint64(0) // outputs must overwrite
						}
						impl.run(a4, a8)
						for w := 0; w < n; w++ {
							if a4[w] != want4[w] || a8[w] != want8[w] {
								t.Fatalf("%s n=%d ctr=%v t4=%#x t8=%#x p=%d word %d: got (%#x, %#x) want (%#x, %#x)",
									impl.name, n, ctr, t4, t8, p, w, a4[w], a8[w], want4[w], want8[w])
							}
						}
					}
				}
			}
		}
	}
}

// TestAcceptLanesGolden pins AcceptLanes and its portable loop to BlockLanes
// plus the scalar compare: per-lane thresholds drawn from the edge set, lane
// counts that leave a generic tail after the eight-lane vector body, and a
// counter whose low word sits at 2^32-1.
func TestAcceptLanesGolden(t *testing.T) {
	t.Logf("avx2 kernels active: %v", HasAVX2())
	prng := rand.New(rand.NewSource(14))
	for _, lanes := range []int{0, 1, 3, 7, 8, 9, 15, 16, 33, 63, 64} {
		for _, ctr := range []Counter{{101, 102, 103, 104}, {1, 2, 3, 1<<32 - 1}} {
			k0s, k1s := make([]uint32, lanes), make([]uint32, lanes)
			for l := range k0s {
				k0s[l], k1s[l] = prng.Uint32(), prng.Uint32()
			}
			draws := make([]uint32, 4*lanes)
			BlockLanes(draws, ctr, k0s, k1s)
			ts := acceptThresholds(append(draws, 0))
			for trial := 0; trial < 8; trial++ {
				t4s, t8s := make([]uint64, lanes), make([]uint64, lanes)
				var want4, want8 [4]uint64
				for l := 0; l < lanes; l++ {
					t4s[l], t8s[l] = ts[prng.Intn(len(ts))], ts[prng.Intn(len(ts))]
					for j := 0; j < 4; j++ {
						u := uint64(draws[4*l+j])
						if u < t4s[l] {
							want4[j] |= 1 << uint(l)
						}
						if u < t8s[l] {
							want8[j] |= 1 << uint(l)
						}
					}
				}
				a4, a8 := [4]uint64{1, 2, 3, 4}, [4]uint64{5, 6, 7, 8} // outputs must overwrite
				AcceptLanes(&a4, &a8, ctr, k0s, k1s, t4s, t8s)
				var g4, g8 [4]uint64
				acceptLanesGeneric(&g4, &g8, ctr, k0s, k1s, t4s, t8s, 0)
				if a4 != want4 || a8 != want8 {
					t.Fatalf("AcceptLanes lanes=%d ctr=%v trial %d: got (%#x, %#x) want (%#x, %#x)",
						lanes, ctr, trial, a4, a8, want4, want8)
				}
				if g4 != want4 || g8 != want8 {
					t.Fatalf("acceptLanesGeneric lanes=%d ctr=%v trial %d: got (%#x, %#x) want (%#x, %#x)",
						lanes, ctr, trial, g4, g8, want4, want8)
				}
			}
		}
	}
}

// BenchmarkAcceptRow measures the fused row kernel on one 4096-column row
// (64 words, 512 blocks — twice BenchmarkBlockRow's blocks), reported in
// bytes of random words consumed.
func BenchmarkAcceptRow(b *testing.B) {
	const words = 64
	a4, a8 := make([]uint64, words), make([]uint64, words)
	b.SetBytes(words * 32 * 4)
	for i := 0; i < b.N; i++ {
		AcceptRow(a4, a8, Counter{uint32(i), 0, 5, 0}, Key{1, 2}, 0x9000_0000, 0x3000_0000, 0)
	}
}

// BenchmarkAcceptLanes measures the fused lane kernel on one 64-lane group
// (the draws of one BenchmarkBlockLanes call).
func BenchmarkAcceptLanes(b *testing.B) {
	const lanes = 64
	k0s, k1s := make([]uint32, lanes), make([]uint32, lanes)
	t4s, t8s := make([]uint64, lanes), make([]uint64, lanes)
	for l := range k0s {
		k0s[l], k1s[l] = uint32(l), uint32(l*7)
		t4s[l], t8s[l] = 0x9000_0000+uint64(l), 0x3000_0000+uint64(l)
	}
	var a4, a8 [4]uint64
	b.SetBytes(lanes * 4 * 4)
	for i := 0; i < b.N; i++ {
		AcceptLanes(&a4, &a8, Counter{0, 0, uint32(i), 0}, k0s, k1s, t4s, t8s)
	}
}
