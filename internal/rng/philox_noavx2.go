//go:build !avx2 || !amd64

package rng

// Portable build: the batch entry points never dispatch to vector code. The
// stubs exist so philoxbatch.go compiles identically under every tag
// combination; they are unreachable (useAVX2 is constant false, and the
// compiler deletes the guarded calls).

const useAVX2 = false

func blockRowAVX2(dst *uint32, n uint64, ctr Counter, key Key) {
	panic("rng: AVX2 kernel called in a portable build")
}

func blockLanesAVX2(dst *uint32, n uint64, ctr Counter, k0s, k1s *uint32) {
	panic("rng: AVX2 kernel called in a portable build")
}

func acceptRowAVX2(a4, a8 *uint64, n uint64, ctr Counter, key Key, c *rowAcceptConsts) {
	panic("rng: AVX2 kernel called in a portable build")
}

func acceptLanesAVX2(a4, a8 *[4]uint64, n uint64, ctr Counter, k0s, k1s *uint32, t4s, t8s *uint64) {
	panic("rng: AVX2 kernel called in a portable build")
}
