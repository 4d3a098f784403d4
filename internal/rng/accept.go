package rng

// Fused accept-mask kernels. The per-site paths of the bit-packed engines
// never need the Philox words themselves — only whether each one falls below
// a 33-bit integer acceptance threshold t (t in [0, 2^32]; the site accepts
// when its random u satisfies u < t). AcceptRow and AcceptLanes run Philox
// and that unsigned compare in one pass and emit the packed acceptance words
// directly, so no random buffer ever reaches memory. The AVX2 bodies (behind
// the `avx2` build tag and HasAVX2) compare straight from the round
// registers; the portable loops below are the fallback, and both produce
// exactly the bits the scalar compare of BlockRow/BlockLanes output would.

// AcceptRow writes the per-site acceptance words of len(a4) consecutive
// 64-column words of one multispin row. Word w draws the eight blocks at
// counters {ctr[0], ctr[1], ctr[2], ctr[3] + 8w + b} (b = 0..7, ctr[3]
// wrapping mod 2^32 as in BlockRow); its active site with in-word ordinal j
// (0..31) reads component j&3 of block j>>2, and bit 2j+p of a4[w] (a8[w])
// is set when that random is below t4 (t8). Every other bit is zero. len(a8)
// must equal len(a4), p must be 0 or 1, and t4, t8 must not exceed 2^32.
func AcceptRow(a4, a8 []uint64, ctr Counter, key Key, t4, t8 uint64, p uint) {
	if len(a8) != len(a4) || p > 1 || t4 > 1<<32 || t8 > 1<<32 {
		panic("rng: AcceptRow needs len(a8) == len(a4), p in {0, 1} and thresholds <= 2^32")
	}
	n := len(a4)
	if useAVX2 && n > 0 {
		c := newRowAcceptConsts(t4, t8, p)
		acceptRowAVX2(&a4[0], &a8[0], uint64(n), ctr, key, &c)
		return
	}
	acceptRowGeneric(a4, a8, ctr, key, t4, t8, p)
}

// acceptRowGeneric is the portable AcceptRow: eight blocks per word through
// the 4-way BlockRow loop, then the 32-site compare-and-pack.
func acceptRowGeneric(a4, a8 []uint64, ctr Counter, key Key, t4, t8 uint64, p uint) {
	var rnd [32]uint32
	for w := range a4 {
		blockRowGeneric(rnd[:], Counter{ctr[0], ctr[1], ctr[2], ctr[3] + uint32(8*w)}, key, 0, 8)
		var m4, m8 uint64
		for j := 0; j < 32; j += 4 {
			pos := uint(2*j) + p
			m4 |= ((uint64(rnd[j]) - t4) >> 63) << pos
			m8 |= ((uint64(rnd[j]) - t8) >> 63) << pos
			m4 |= ((uint64(rnd[j+1]) - t4) >> 63) << (pos + 2)
			m8 |= ((uint64(rnd[j+1]) - t8) >> 63) << (pos + 2)
			m4 |= ((uint64(rnd[j+2]) - t4) >> 63) << (pos + 4)
			m8 |= ((uint64(rnd[j+2]) - t8) >> 63) << (pos + 4)
			m4 |= ((uint64(rnd[j+3]) - t4) >> 63) << (pos + 6)
			m8 |= ((uint64(rnd[j+3]) - t8) >> 63) << (pos + 6)
		}
		a4[w], a8[w] = m4, m8
	}
}

// rowAcceptConsts are the broadcast operands of the AVX2 AcceptRow body. The
// compare runs on sign-flipped words (signed VPCMPGTD then orders like the
// unsigned compare) in the form u < t <=> !(u > t-1), which fits 32 bits for
// every t in [1, 2^32]; t = 0 never accepts and gets an all-zero bit mask.
type rowAcceptConsts struct {
	s4, s8 [8]uint32    // (t-1) ^ 0x80000000
	k4, k8 [4][8]uint32 // for component c: bit 2c+p, or 0 when t == 0
}

func newRowAcceptConsts(t4, t8 uint64, p uint) rowAcceptConsts {
	var c rowAcceptConsts
	for l := 0; l < 8; l++ {
		c.s4[l] = uint32(t4-1) ^ 1<<31
		c.s8[l] = uint32(t8-1) ^ 1<<31
		for comp := uint(0); comp < 4; comp++ {
			bit := uint32(1) << (2*comp + p)
			if t4 != 0 {
				c.k4[comp][l] = bit
			}
			if t8 != 0 {
				c.k8[comp][l] = bit
			}
		}
	}
	return c
}

// AcceptLanes writes the acceptance masks of one four-site group of the
// lane-packed ensemble: lane l draws Block(ctr, Key{k0s[l], k1s[l]}), and
// bit l of a4[j] (a8[j]) is set when component j of that block is below
// t4s[l] (t8s[l]). Bits at and above len(k0s) are zero. All four slices must
// have the same length, at most 64, and every threshold must not exceed
// 2^32.
func AcceptLanes(a4, a8 *[4]uint64, ctr Counter, k0s, k1s []uint32, t4s, t8s []uint64) {
	n := len(k0s)
	if len(k1s) != n || len(t4s) != n || len(t8s) != n || n > 64 {
		panic("rng: AcceptLanes needs equal-length key and threshold slices of at most 64 lanes")
	}
	*a4, *a8 = [4]uint64{}, [4]uint64{}
	i := 0
	if useAVX2 && n >= 8 {
		m := n &^ 7
		acceptLanesAVX2(a4, a8, uint64(m), ctr, &k0s[0], &k1s[0], &t4s[0], &t8s[0])
		i = m
	}
	acceptLanesGeneric(a4, a8, ctr, k0s, k1s, t4s, t8s, i)
}

// acceptLanesGeneric is the portable AcceptLanes for lanes [i, len(k0s)):
// eight lanes' blocks at a time through the 4-way BlockLanes loop, then the
// per-lane compare-and-pack, ORed into a4/a8.
func acceptLanesGeneric(a4, a8 *[4]uint64, ctr Counter, k0s, k1s []uint32, t4s, t8s []uint64, i int) {
	var rnd [32]uint32
	for ; i < len(k0s); i += 8 {
		m := min(8, len(k0s)-i)
		blockLanesGeneric(rnd[:4*m], ctr, k0s[i:i+m], k1s[i:i+m], 0, m)
		for l := 0; l < m; l++ {
			t4, t8 := t4s[i+l], t8s[i+l]
			o := rnd[4*l : 4*l+4 : 4*l+4]
			sh := uint(i + l)
			a4[0] |= ((uint64(o[0]) - t4) >> 63) << sh
			a8[0] |= ((uint64(o[0]) - t8) >> 63) << sh
			a4[1] |= ((uint64(o[1]) - t4) >> 63) << sh
			a8[1] |= ((uint64(o[1]) - t8) >> 63) << sh
			a4[2] |= ((uint64(o[2]) - t4) >> 63) << sh
			a8[2] |= ((uint64(o[2]) - t8) >> 63) << sh
			a4[3] |= ((uint64(o[3]) - t4) >> 63) << sh
			a8[3] |= ((uint64(o[3]) - t8) >> 63) << sh
		}
	}
}
