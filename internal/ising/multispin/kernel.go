package multispin

import (
	"math"

	"tpuising/internal/ising"
	"tpuising/internal/rng"
)

// Kernel is the reusable core of the bit-packed Metropolis update: the two
// integer acceptance thresholds, the Philox key and the random-sharing mode.
// It is deliberately free of any lattice geometry — UpdateRowScratch is handed
// the packed words of one row plus its neighbours and the row's *global*
// coordinates, so the whole-lattice Engine and the mesh-sharded engine
// (internal/ising/sharded) evaluate exactly the same pure function of
// (seed, step, global site) and stay bit-identical to each other.
type Kernel struct {
	// T4 and T8 are the 33-bit integer acceptance thresholds for one and zero
	// disagreeing neighbours (see acceptThreshold).
	T4, T8 uint64
	// Key is the site-keyed Philox key derived from the seed.
	Key rng.Key
	// Shared selects one random per 64-column word instead of one per site.
	Shared bool
}

// NewKernel derives the kernel of a temperature/seed pair. The key derivation
// matches rng.NewSiteKeyed, making the kernel one more member of the
// repository's site-keyed family.
func NewKernel(temperature float64, seed uint64, shared bool) Kernel {
	k := Kernel{
		Key:    rng.Key{uint32(seed), uint32(seed>>32) ^ 0x1BD11BDA},
		Shared: shared,
	}
	k.SetTemperature(temperature)
	return k
}

// Thresholds is the precomputed integer acceptance pair of one temperature:
// the only temperature-dependent state of a kernel, and the only place the
// engine ever touches math.Exp. Consumers that change temperatures often —
// the replica-exchange swap loop flips two lanes per accepted swap — derive
// one Thresholds per ladder rung through a ThresholdCache and install it with
// SetThresholds, paying the two exponentials once per distinct temperature
// instead of twice per swap.
type Thresholds struct {
	T4, T8 uint64
}

// ThresholdsFor computes the acceptance pair of a temperature (two math.Exp
// calls). It panics if temperature is not positive.
func ThresholdsFor(temperature float64) Thresholds {
	if temperature <= 0 {
		panic("multispin: temperature must be positive")
	}
	beta := ising.Beta(temperature)
	return Thresholds{
		T4: acceptThreshold(math.Exp(-4 * beta * ising.J)),
		T8: acceptThreshold(math.Exp(-8 * beta * ising.J)),
	}
}

// ThresholdCache memoizes ThresholdsFor by exact temperature value. A
// tempering ladder revisits the same few rungs for the whole run, so after
// the first visit every SetTemperature on the swap path is one map lookup and
// no floating point. The cache is not safe for concurrent mutation; engines
// own one each and mutate it only from their (single-threaded) control path.
type ThresholdCache struct {
	m map[float64]Thresholds
}

// thresholdCacheLimit bounds the memo so a pathological caller sweeping
// millions of distinct temperatures cannot grow it without limit; on overflow
// the cache resets rather than evicting (ladders are tiny, resets are free).
const thresholdCacheLimit = 1024

// For returns the memoized acceptance pair of a temperature, computing and
// caching it on first sight.
func (c *ThresholdCache) For(temperature float64) Thresholds {
	if th, ok := c.m[temperature]; ok {
		return th
	}
	th := ThresholdsFor(temperature)
	if c.m == nil || len(c.m) >= thresholdCacheLimit {
		c.m = make(map[float64]Thresholds, 8)
	}
	c.m[temperature] = th
	return th
}

// SetTemperature recomputes the acceptance thresholds for a new temperature,
// leaving the key and the sharing mode untouched.
func (k *Kernel) SetTemperature(temperature float64) {
	k.SetThresholds(ThresholdsFor(temperature))
}

// SetThresholds installs a precomputed acceptance pair (see ThresholdCache).
func (k *Kernel) SetThresholds(th Thresholds) {
	k.T4, k.T8 = th.T4, th.T8
}

// DisagreeClasses bit-slices the four neighbour-disagreement masks of 64
// sites (or, in the lane-packed ensemble engine, of 64 independent chains at
// one site) into the three Metropolis acceptance classes: ge2 marks sites
// with >= 2 disagreeing neighbours (always accept), one marks exactly one
// (accept with probability exp(-4 beta)) and zero marks none (accept with
// probability exp(-8 beta)). It is the shared core of every bit-packed
// engine's hot loop — the whole-lattice engine, the mesh-sharded engine and
// internal/ising/ensemble all classify through it.
func DisagreeClasses(d1, d2, d3, d4 uint64) (ge2, one, zero uint64) {
	// Bit-sliced sum of the four d-bits into a 3-bit count per site.
	h0, c0 := d1^d2, d1&d2
	h1, c1 := d3^d4, d3&d4
	low := h0 ^ h1
	ca := h0 & h1
	mid := c0 ^ c1 ^ ca
	hi := (c0 & c1) | (ca & (c0 ^ c1))
	ge2 = mid | hi
	one = low &^ mid &^ hi
	zero = ^(low | mid | hi)
	return ge2, one, zero
}

// tileWords is the column-blocking width of the optimized row kernel: the
// acceptance masks (per-site mode) or randoms (shared mode) of tileWords words
// are produced per batched call, so the per-site scratch is 2*tileWords mask
// words (1 KiB) — small enough that the tile's masks, the row band and the
// neighbour rows stay cache-resident while the word loop consumes them.
const tileWords = 64

// Scratch is the reusable buffer of the optimized row kernel: one tile's a4/a8
// acceptance masks in per-site mode, one tile's Philox blocks in shared mode.
// Engines keep one per worker goroutine and pass it to every
// UpdateRowScratch call; the zero value is ready to use and grows on first
// use. It carries no kernel state — only scratch memory — so any kernel may
// use any scratch.
type Scratch struct {
	mask []uint64
	rand []uint32
}

// masks returns the a4 and a8 views of an n-word tile.
func (s *Scratch) masks(n int) (a4, a8 []uint64) {
	if cap(s.mask) < 2*tileWords {
		s.mask = make([]uint64, 2*tileWords)
	}
	return s.mask[:n], s.mask[tileWords : tileWords+n]
}

// buf returns an n-word view of the random buffer, growing it if needed.
func (s *Scratch) buf(n int) []uint32 {
	if cap(s.rand) < n {
		s.rand = make([]uint32, n)
	}
	return s.rand[:n]
}

// UpdateRowScratch performs the colour update of the active sites of one
// packed lattice row, in place. row holds the W words of the row; north and
// south are the rows above and below (pre-update snapshots are fine: every
// neighbour bit consumed belongs to the opposite colour, which this update
// does not write). westWrap is the word logically west of row[0] (only its
// bit 63 is consumed) and eastWrap the word logically east of row[W-1] (only
// its bit 0 is consumed); the whole-lattice engine passes the row's own end
// words for the torus wrap, a shard passes its neighbour's halo.
//
// globalRow and wordOff are the row's global row index and the global word
// index of row[0]: they key the site randoms and select the active-colour
// parity, so a shard updating a window of a larger lattice draws exactly the
// randoms the whole-lattice engine would. sc is a caller-owned scratch
// buffer; the engines keep one per worker goroutine.
//
// The kernel is bit-identical to UpdateRowRef, the retained naive reference
// (pinned by the golden equivalence tests in kernel_equiv_test.go). Per tile
// of words, per-site mode gets the sites' a4/a8 acceptance masks from one
// fused rng.AcceptRow call (Philox and the threshold compare in one pass —
// the AVX2 kernel when built with the avx2 tag, the portable loop otherwise),
// and shared mode draws the words' randoms with one rng.BlockRow call. The
// word loop then applies the masks with the wrap/select branches hoisted into
// explicit first/middle/last-word handling.
//
// Within one colour update the kernel writes only active-colour bits and
// consumes only inactive-colour neighbour bits, so the word loop may read
// row[w-1] after updating it: the one west bit it consumes (bit 63, an
// odd-parity column) is consumed only by even-parity updates and written only
// by odd-parity ones. That is what lets the loop roll the west neighbour
// through a local instead of re-selecting westWrap/row[w-1] per word, and it
// is the same invariant that makes the engines' pre-update halo snapshots
// exact.
func (k Kernel) UpdateRowScratch(row, north, south []uint64, westWrap, eastWrap uint64, globalRow, wordOff, parity int, step uint64, sc *Scratch) {
	W := len(row)
	if W == 0 {
		return
	}
	s0, s1 := uint32(step), uint32(step>>32)
	rr := uint32(int64(globalRow))
	p := uint((parity + globalRow) & 1)
	cmask := uint64(evenMask)
	if p == 1 {
		cmask = ^cmask
	}
	t4, t8 := k.T4, k.T8
	for w0 := 0; w0 < W; w0 += tileWords {
		w1 := w0 + tileWords
		if w1 > W {
			w1 = W
		}
		// The tile's acceptance masks: per-site mode consumes 8 blocks per
		// word at consecutive counters starting at (wordOff+w0)*8, shared
		// mode one block per word starting at wordOff+w0, whose component 0
		// decides the whole word. Both match the reference's per-word
		// counters exactly (mod-2^32 arithmetic included).
		a4, a8 := sc.masks(w1 - w0)
		if k.Shared {
			rnd := sc.buf(tileWords * 4)[:(w1-w0)*4]
			rng.BlockRow(rnd, rng.Counter{s0, s1, rr, uint32(wordOff + w0)}, k.Key)
			for i := range a4 {
				u := uint64(rnd[4*i])
				a4[i] = ^uint64(0) * ((u - t4) >> 63)
				a8[i] = ^uint64(0) * ((u - t8) >> 63)
			}
		} else {
			rng.AcceptRow(a4, a8, rng.Counter{s0, s1, rr, uint32((wordOff + w0) * 8)}, k.Key, t4, t8, p)
		}
		// Hoisted boundary handling: the west neighbour rolls through a
		// local (see above), the east select happens once, for the tile's
		// last word, instead of once per word.
		westSrc := westWrap
		if w0 > 0 {
			westSrc = row[w0-1]
		}
		last := w1 - 1
		for w := w0; w < last; w++ {
			row[w] = updateWord(row[w], north[w], south[w], row[w+1], westSrc, a4[w-w0], a8[w-w0], cmask)
			westSrc = row[w]
		}
		eastSrc := eastWrap
		if w1 < W {
			eastSrc = row[w1]
		}
		row[last] = updateWord(row[last], north[last], south[last], eastSrc, westSrc, a4[last-w0], a8[last-w0], cmask)
	}
}

// updateWord applies one 64-column word's Metropolis update given its
// acceptance masks: a4 (a8) marks the active sites that accept a flip with
// one (zero) disagreeing neighbours.
func updateWord(cur, north, south, eastSrc, westSrc, a4, a8, cmask uint64) uint64 {
	east := (cur >> 1) | (eastSrc << 63)
	west := (cur << 1) | (westSrc >> 63)
	ge2, one, zero := DisagreeClasses(cur^north, cur^south, cur^east, cur^west)
	return cur ^ ((ge2 | one&a4 | zero&a8) & cmask)
}

// UpdateRowRef is the retained naive reference implementation of
// UpdateRowScratch:
// word-at-a-time, branching wrap selection, randoms drawn two blocks at a
// time inline. It is never called by the engines — it exists so the golden
// equivalence property test can pin every optimized variant (portable tiled,
// AVX2 when built) to the exact spins this loop produces at any
// (seed, step, geometry).
func (k Kernel) UpdateRowRef(row, north, south []uint64, westWrap, eastWrap uint64, globalRow, wordOff, parity int, step uint64) {
	W := len(row)
	s0, s1 := uint32(step), uint32(step>>32)
	t4, t8 := k.T4, k.T8
	// Columns of the active colour in this row have parity p.
	p := (parity + globalRow) & 1
	cmask := uint64(evenMask)
	if p == 1 {
		cmask = ^cmask
	}
	for w := 0; w < W; w++ {
		cur := row[w]
		eastSrc, westSrc := eastWrap, westWrap
		if w+1 < W {
			eastSrc = row[w+1]
		}
		if w > 0 {
			westSrc = row[w-1]
		}
		east := (cur >> 1) | (eastSrc << 63)
		west := (cur << 1) | (westSrc >> 63)
		// d-bits: 1 where the site disagrees with that neighbour.
		d1, d2, d3, d4 := cur^north[w], cur^south[w], cur^east, cur^west
		ge2, one, zero := DisagreeClasses(d1, d2, d3, d4)
		var a4, a8 uint64
		gw := w + wordOff
		if k.Shared {
			// One random shared by the whole word.
			u := uint64(rng.Block(rng.Counter{s0, s1, uint32(int64(globalRow)), uint32(gw)}, k.Key)[0])
			a4 = ^uint64(0) * ((u - t4) >> 63)
			a8 = ^uint64(0) * ((u - t8) >> 63)
		} else {
			// One random per active site: lane j&3 of the Philox block keyed
			// by (step, row, j>>2), where j = column/2 is the site's ordinal
			// among same-colour sites in the row. The word's 32 active sites
			// consume 8 blocks with no waste, generated two at a time so the
			// multiplies of independent blocks overlap in the pipeline.
			base := uint32(gw * 8)
			rr := uint32(int64(globalRow))
			for j := 0; j < 32; j += 8 {
				ba, bb := rng.BlockPair(
					rng.Counter{s0, s1, rr, base + uint32(j>>2)},
					rng.Counter{s0, s1, rr, base + uint32(j>>2) + 1},
					k.Key)
				pos := uint(2*j + p)
				a4 |= ((uint64(ba[0]) - t4) >> 63) << pos
				a8 |= ((uint64(ba[0]) - t8) >> 63) << pos
				a4 |= ((uint64(ba[1]) - t4) >> 63) << (pos + 2)
				a8 |= ((uint64(ba[1]) - t8) >> 63) << (pos + 2)
				a4 |= ((uint64(ba[2]) - t4) >> 63) << (pos + 4)
				a8 |= ((uint64(ba[2]) - t8) >> 63) << (pos + 4)
				a4 |= ((uint64(ba[3]) - t4) >> 63) << (pos + 6)
				a8 |= ((uint64(ba[3]) - t8) >> 63) << (pos + 6)
				a4 |= ((uint64(bb[0]) - t4) >> 63) << (pos + 8)
				a8 |= ((uint64(bb[0]) - t8) >> 63) << (pos + 8)
				a4 |= ((uint64(bb[1]) - t4) >> 63) << (pos + 10)
				a8 |= ((uint64(bb[1]) - t8) >> 63) << (pos + 10)
				a4 |= ((uint64(bb[2]) - t4) >> 63) << (pos + 12)
				a8 |= ((uint64(bb[2]) - t8) >> 63) << (pos + 12)
				a4 |= ((uint64(bb[3]) - t4) >> 63) << (pos + 14)
				a8 |= ((uint64(bb[3]) - t8) >> 63) << (pos + 14)
			}
		}
		row[w] = cur ^ ((ge2 | (one & a4) | (zero & a8)) & cmask)
	}
}
