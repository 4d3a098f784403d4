//go:build avx2 && amd64

package rng

// AVX2 build: the batch entry points dispatch to the vector kernels in
// philox_avx2_amd64.s when the CPU supports them. The build tag keeps the
// portable loop the mandatory default — opting in is `go build -tags avx2` —
// and the runtime check below keeps even an avx2-tagged binary correct on a
// pre-Haswell machine or one whose OS does not save the ymm state.

// useAVX2 gates the vector dispatch. It is computed once at init from CPUID
// (the toolchain has no dependency on golang.org/x/sys/cpu, so the feature
// test is hand-rolled in the assembly file): AVX2 needs CPUID.1 OSXSAVE+AVX,
// XCR0 enabling xmm+ymm state, and CPUID.(7,0) EBX bit 5.
var useAVX2 = detectAVX2()

func detectAVX2() bool {
	_, _, cx, _ := cpuid(1, 0)
	const osxsaveAVX = 1<<27 | 1<<28
	if cx&osxsaveAVX != osxsaveAVX {
		return false
	}
	if xgetbv0()&6 != 6 { // xmm and ymm state enabled by the OS
		return false
	}
	_, bx, _, _ := cpuid(7, 0)
	return bx&(1<<5) != 0
}

// cpuid executes the CPUID instruction (leaf in AX, subleaf in CX).
func cpuid(leaf, sub uint32) (ax, bx, cx, dx uint32)

// xgetbv0 reads extended control register 0 (XCR0).
func xgetbv0() uint64

// blockRowAVX2 writes n (a positive multiple of 8) consecutive-counter Philox
// blocks to dst in Block's output order: dst[4i+k] = Block(ctr+i, key)[k],
// where ctr+i increments only ctr[3] mod 2^32.
//
//go:noescape
func blockRowAVX2(dst *uint32, n uint64, ctr Counter, key Key)

// blockLanesAVX2 writes n (a positive multiple of 8) fixed-counter Philox
// blocks to dst, lane l drawing under Key{k0s[l], k1s[l]}.
//
//go:noescape
func blockLanesAVX2(dst *uint32, n uint64, ctr Counter, k0s, k1s *uint32)

// acceptRowAVX2 writes the AcceptRow masks of n (positive) words, one word's
// eight blocks per vector iteration, with the thresholds preprocessed into c.
//
//go:noescape
func acceptRowAVX2(a4, a8 *uint64, n uint64, ctr Counter, key Key, c *rowAcceptConsts)

// acceptLanesAVX2 writes the AcceptLanes masks of the first n lanes (a
// positive multiple of 8) as whole bytes of a4[c]/a8[c].
//
//go:noescape
func acceptLanesAVX2(a4, a8 *[4]uint64, n uint64, ctr Counter, k0s, k1s *uint32, t4s, t8s *uint64)
