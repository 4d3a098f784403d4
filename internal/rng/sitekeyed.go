package rng

// SiteKeyed generates the random uniform used to accept or reject the flip of
// a specific lattice site at a specific Monte-Carlo step, as a pure function
// of (seed, step, row, column).
//
// Because the value depends only on global coordinates, a lattice that is
// domain-decomposed over many TensorCores consumes exactly the same random
// numbers as a single-core run of the whole lattice, which makes the
// distributed simulator bit-identical to the single-core simulator (this is
// asserted by integration tests). It mirrors the stateless
// tf.random.stateless_uniform family on TPU.
type SiteKeyed struct {
	key Key
}

// NewSiteKeyed returns a site-keyed generator for the given seed.
func NewSiteKeyed(seed uint64) *SiteKeyed {
	return &SiteKeyed{key: Key{uint32(seed), uint32(seed>>32) ^ 0x1BD11BDA}}
}

// Uniform returns the uniform [0,1) variate for (step, row, col).
func (s *SiteKeyed) Uniform(step uint64, row, col int) float32 {
	ctr := Counter{uint32(step), uint32(step >> 32), uint32(int64(row)), uint32(int64(col))}
	return Uint32ToUniform(Block(ctr, s.key)[0])
}

// FillGrid fills dst (row-major, rows x cols) with the uniforms of the global
// sub-rectangle whose top-left corner is (rowOff, colOff) at the given step.
// dst must have rows*cols elements.
func (s *SiteKeyed) FillGrid(dst []float32, step uint64, rowOff, colOff, rows, cols int) {
	if len(dst) != rows*cols {
		panic("rng: FillGrid destination size mismatch")
	}
	for r := 0; r < rows; r++ {
		base := r * cols
		gr := rowOff + r
		for c := 0; c < cols; c++ {
			dst[base+c] = s.Uniform(step, gr, colOff+c)
		}
	}
}

// Key returns the generator key (for reproducibility records).
func (s *SiteKeyed) Key() Key { return s.key }
