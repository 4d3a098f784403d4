package ensemble

import (
	"fmt"

	"tpuising/internal/ising"
	"tpuising/internal/ising/multispin"
	"tpuising/internal/rng"
)

// Scratch is a reusable per-worker buffer for Kernel.UpdateRow, the
// lane-packed analogue of multispin.Scratch: each row-band goroutine (or each
// shard) owns one. Only shared mode uses it, for the row's batched class
// draws; per-lane mode builds each group's acceptance masks in registers with
// rng.AcceptLanes and needs no buffer.
type Scratch struct {
	rand []uint32
}

func (s *Scratch) buf(n int) []uint32 {
	if cap(s.rand) < n {
		s.rand = make([]uint32, n)
	}
	return s.rand[:n]
}

// Kernel is the lane-packed row-update kernel shared by the ensemble engine
// and the sharded-ensemble composition, playing the role multispin.Kernel
// plays for the multispin and sharded engines: it owns the per-lane keys,
// temperatures and acceptance thresholds (plus their structure-of-arrays
// mirrors feeding the batched rng calls) and updates one row of lane-packed
// words at a time. Callers address rows by *global* coordinates — globalRow
// indexes the site-keyed Philox stream and the checkerboard parity, groupOff
// is the global index of the row slice's first four-site random group — so a
// shard updating its local slice of a larger lattice draws exactly the
// randoms the standalone engine draws for those sites. That identity is what
// makes every lane of a sharded ensemble bit-identical to the same lane of a
// standalone ensemble (and hence to a standalone multispin chain).
type Kernel struct {
	lanes     int
	laneMask  uint64 // bits 0..lanes-1
	shared    bool
	uniform   bool // all lanes share one threshold pair (fast shared path)
	sharedKey rng.Key
	kerns     []multispin.Kernel // per-lane key + thresholds
	temps     []float64

	// Structure-of-arrays mirrors of the per-lane kernels, kept in sync by
	// NewKernel and SetLaneTemperature: the hot loop reads thresholds from
	// flat slices and hands the key and threshold arrays straight to
	// rng.AcceptLanes.
	t4s, t8s   []uint64
	k0s, k1s   []uint32
	thresholds multispin.ThresholdCache // memoized acceptance pairs per rung
}

// NewKernel builds a kernel for len(temps) lanes: lane L runs at temps[L]
// with its Philox key derived from ising.LaneSeed(seed, L), exactly like a
// standalone multispin chain with that seed.
func NewKernel(seed uint64, temps []float64, shared bool) (*Kernel, error) {
	lanes := len(temps)
	if lanes < 1 || lanes > MaxLanes {
		return nil, fmt.Errorf("ensemble: lanes must be 1..%d, got %d", MaxLanes, lanes)
	}
	k := &Kernel{
		lanes:     lanes,
		laneMask:  laneMask(lanes),
		shared:    shared,
		sharedKey: multispin.NewKernel(ising.CriticalTemperature(), seed, true).Key,
		kerns:     make([]multispin.Kernel, lanes),
		temps:     append([]float64(nil), temps...),
		t4s:       make([]uint64, lanes),
		t8s:       make([]uint64, lanes),
		k0s:       make([]uint32, lanes),
		k1s:       make([]uint32, lanes),
	}
	for l := range k.kerns {
		if temps[l] <= 0 {
			return nil, fmt.Errorf("ensemble: lane %d temperature %g must be positive", l, temps[l])
		}
		k.kerns[l] = multispin.NewKernel(temps[l], ising.LaneSeed(seed, l), false)
		k.t4s[l], k.t8s[l] = k.kerns[l].T4, k.kerns[l].T8
		k.k0s[l], k.k1s[l] = k.kerns[l].Key[0], k.kerns[l].Key[1]
	}
	k.refreshUniform()
	return k, nil
}

// refreshUniform recomputes whether every lane shares one threshold pair.
func (k *Kernel) refreshUniform() {
	k.uniform = true
	for l := 1; l < k.lanes; l++ {
		if k.kerns[l].T4 != k.kerns[0].T4 || k.kerns[l].T8 != k.kerns[0].T8 {
			k.uniform = false
			return
		}
	}
}

// Lanes returns the number of packed replicas.
func (k *Kernel) Lanes() int { return k.lanes }

// LaneMask returns the word mask selecting the active lane bits.
func (k *Kernel) LaneMask() uint64 { return k.laneMask }

// SharedMode reports whether the kernel draws class-shared randoms.
func (k *Kernel) SharedMode() bool { return k.shared }

// LaneTemperature returns one lane's current temperature.
func (k *Kernel) LaneTemperature(lane int) float64 { return k.temps[lane] }

// SetLaneTemperature changes one lane's temperature. The thresholds are
// memoized per rung: the tempering swap loop toggles lanes between the same
// ladder temperatures for the whole run, so after each rung's first visit
// this is a map lookup — no math.Exp on the swap path (pinned by
// BenchmarkSetLaneTemperatureSwap).
func (k *Kernel) SetLaneTemperature(lane int, t float64) {
	if t <= 0 {
		panic("ensemble: temperature must be positive")
	}
	k.kerns[lane].SetThresholds(k.thresholds.For(t))
	k.t4s[lane], k.t8s[lane] = k.kerns[lane].T4, k.kerns[lane].T8
	k.temps[lane] = t
	k.refreshUniform()
}

// LaneKey returns one lane's Philox key (for snapshots).
func (k *Kernel) LaneKey(lane int) rng.Key { return k.kerns[lane].Key }

// SetLaneKey replaces one lane's Philox key (for snapshot restore), keeping
// the SoA mirrors in sync.
func (k *Kernel) SetLaneKey(lane int, key rng.Key) {
	k.kerns[lane].Key = key
	k.k0s[lane], k.k1s[lane] = key[0], key[1]
}

// UpdateRow performs the colour update of the active sites of one lane-packed
// row. row, north and south are slices of lane-packed words (one word per
// site); westWord and eastWord are the words the sites just outside the slice
// hold — the caller passes pre-call snapshots of row[len-1] and row[0] for a
// periodic standalone row, or the received halo words for a shard slice.
// Both are exact, because east/west neighbours of active sites carry the
// inactive colour and are never written by this update.
//
// Active sites in global row r have column parity p = (parity + r) & 1. The
// site randoms reproduce multispin's mapping exactly: the site with global
// same-colour ordinal j draws component j&3 of the Philox block keyed by
// (step, r, j>>2) under the lane's key. len(row) must be a multiple of 8 so
// four-site random groups never straddle the slice; groupOff is the global
// group index of the slice's first group (global first column / 8).
//
// This is the optimized ΔE-class loop: per-lane mode gets all lanes' accept
// masks of a four-site group from one fused rng.AcceptLanes call over the SoA
// key and threshold arrays (the AVX2 kernel does 8 lanes per vector
// iteration, with no random ever stored), shared mode batches the whole
// row's class draws with one rng.BlockRow call. Both consume exactly the
// blocks the retained reference loop (UpdateRowRef) draws inline, and the
// golden-equivalence test pins the two bit-for-bit.
func (k *Kernel) UpdateRow(row, north, south []uint64, westWord, eastWord uint64, globalRow, groupOff, parity int, step uint64, sc *Scratch) {
	p := (parity + globalRow) & 1
	s0, s1 := uint32(step), uint32(step>>32)
	rr := uint32(int64(globalRow))
	groups := len(row) / 8
	var a4, a8 [4]uint64
	if k.shared {
		// One block per ΔE class pair per group, batched for the whole row:
		// rnd[8g+j] is the d=1 class draw of the group's j-th site (counter
		// 2*(groupOff+g), component j), rnd[8g+4+j] the d=0 draw.
		rnd := sc.buf(8 * groups)
		rng.BlockRow(rnd, rng.Counter{s0, s1, rr, uint32(2 * groupOff)}, k.sharedKey)
		t4, t8 := k.t4s[0], k.t8s[0]
		for g := 0; g < groups; g++ {
			o := rnd[8*g : 8*g+8 : 8*g+8]
			if k.uniform {
				for j := 0; j < 4; j++ {
					a4[j] = ^uint64(0) * ((uint64(o[j]) - t4) >> 63)
					a8[j] = ^uint64(0) * ((uint64(o[4+j]) - t8) >> 63)
				}
			} else {
				for j := 0; j < 4; j++ {
					a4[j], a8[j] = 0, 0
				}
				for l := 0; l < k.lanes; l++ {
					lt4, lt8 := k.t4s[l], k.t8s[l]
					for j := 0; j < 4; j++ {
						a4[j] |= ((uint64(o[j]) - lt4) >> 63) << uint(l)
						a8[j] |= ((uint64(o[4+j]) - lt8) >> 63) << uint(l)
					}
				}
			}
			k.applyGroup(row, north, south, westWord, eastWord, g, p, &a4, &a8)
		}
	} else {
		// One draw per lane per site: all lanes of a group compared in one
		// fused call under the SoA key and threshold arrays.
		for g := 0; g < groups; g++ {
			rng.AcceptLanes(&a4, &a8, rng.Counter{s0, s1, rr, uint32(groupOff + g)}, k.k0s, k.k1s, k.t4s, k.t8s)
			k.applyGroup(row, north, south, westWord, eastWord, g, p, &a4, &a8)
		}
	}
}

// applyGroup flips the four active sites of group g using the accumulated
// per-lane accept masks, substituting the boundary words outside the slice.
func (k *Kernel) applyGroup(row, north, south []uint64, westWord, eastWord uint64, g, p int, a4, a8 *[4]uint64) {
	W := len(row)
	for j := 0; j < 4; j++ {
		c := 2*(4*g+j) + p
		cur := row[c]
		east := eastWord
		if c+1 < W {
			east = row[c+1]
		}
		west := westWord
		if c > 0 {
			west = row[c-1]
		}
		ge2, one, zero := multispin.DisagreeClasses(
			cur^north[c], cur^south[c], cur^east, cur^west)
		row[c] = cur ^ ((ge2 | one&a4[j] | zero&a8[j]) & k.laneMask)
	}
}

// UpdateRowRef is the retained naive reference of UpdateRow — randoms drawn
// two blocks/keys at a time inline, thresholds read through the per-lane
// kernels. It is never called by the engines; the golden-equivalence tests
// pin the optimized loop to it bit-for-bit.
func (k *Kernel) UpdateRowRef(row, north, south []uint64, westWord, eastWord uint64, globalRow, groupOff, parity int, step uint64) {
	p := (parity + globalRow) & 1
	s0, s1 := uint32(step), uint32(step>>32)
	rr := uint32(int64(globalRow))
	groups := len(row) / 8
	var a4, a8 [4]uint64
	for g := 0; g < groups; g++ {
		// Accept masks of the group's four active sites: bit L of a4[j] (a8[j])
		// decides lane L's flip at the j-th site when it has one (zero)
		// disagreeing neighbours.
		if k.shared {
			// One draw per ΔE class per site, shared by every lane.
			ba, bb := rng.BlockPair(
				rng.Counter{s0, s1, rr, uint32(2 * (groupOff + g))},
				rng.Counter{s0, s1, rr, uint32(2*(groupOff+g) + 1)},
				k.sharedKey)
			if k.uniform {
				t4, t8 := k.kerns[0].T4, k.kerns[0].T8
				for j := 0; j < 4; j++ {
					a4[j] = ^uint64(0) * ((uint64(ba[j]) - t4) >> 63)
					a8[j] = ^uint64(0) * ((uint64(bb[j]) - t8) >> 63)
				}
			} else {
				for j := 0; j < 4; j++ {
					a4[j], a8[j] = 0, 0
				}
				for l := 0; l < k.lanes; l++ {
					t4, t8 := k.kerns[l].T4, k.kerns[l].T8
					for j := 0; j < 4; j++ {
						a4[j] |= ((uint64(ba[j]) - t4) >> 63) << uint(l)
						a8[j] |= ((uint64(bb[j]) - t8) >> 63) << uint(l)
					}
				}
			}
		} else {
			// One draw per lane per site, through the lane's own key; two lanes
			// share each interleaved Philox evaluation.
			ctr := rng.Counter{s0, s1, rr, uint32(groupOff + g)}
			for j := 0; j < 4; j++ {
				a4[j], a8[j] = 0, 0
			}
			l := 0
			for ; l+1 < k.lanes; l += 2 {
				ba, bb := rng.BlockPairKeys(ctr, k.kerns[l].Key, k.kerns[l+1].Key)
				t4a, t8a := k.kerns[l].T4, k.kerns[l].T8
				t4b, t8b := k.kerns[l+1].T4, k.kerns[l+1].T8
				for j := 0; j < 4; j++ {
					a4[j] |= ((uint64(ba[j]) - t4a) >> 63) << uint(l)
					a8[j] |= ((uint64(ba[j]) - t8a) >> 63) << uint(l)
					a4[j] |= ((uint64(bb[j]) - t4b) >> 63) << uint(l+1)
					a8[j] |= ((uint64(bb[j]) - t8b) >> 63) << uint(l+1)
				}
			}
			if l < k.lanes {
				blk := rng.Block(ctr, k.kerns[l].Key)
				t4, t8 := k.kerns[l].T4, k.kerns[l].T8
				for j := 0; j < 4; j++ {
					a4[j] |= ((uint64(blk[j]) - t4) >> 63) << uint(l)
					a8[j] |= ((uint64(blk[j]) - t8) >> 63) << uint(l)
				}
			}
		}
		k.applyGroup(row, north, south, westWord, eastWord, g, p, &a4, &a8)
	}
}
