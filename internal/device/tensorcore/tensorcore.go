// Package tensorcore assembles the device models (MXU, VPU, HBM) into a
// single simulated TPU TensorCore with the operation API that the
// checkerboard kernels are written against, and a profiler that attributes
// every operation to the categories reported in the paper's Table 3.
//
// All operations execute for real on the host (producing exact numerical
// results); the device models attach a work estimate to each, so that the
// performance model in internal/perf can turn an instrumented run into the
// modelled step time, throughput and roofline numbers of a TPU v3 core.
package tensorcore

import (
	"tpuising/internal/device/hbm"
	"tpuising/internal/device/metrics"
	"tpuising/internal/device/mxu"
	"tpuising/internal/device/spec"
	"tpuising/internal/device/vpu"
	"tpuising/internal/rng"
	"tpuising/internal/tensor"
)

// Core is one simulated TensorCore.
type Core struct {
	// ID is the global core index within a pod (0 for a standalone core).
	ID int

	chip spec.Chip
	mxu  *mxu.MXU
	vpu  *vpu.VPU
	hbm  *hbm.HBM

	counts metrics.Counts
}

// New returns a simulated TPU v3 TensorCore with the given pod-wide ID.
func New(id int) *Core {
	return &Core{
		ID:   id,
		chip: spec.TPUv3Core(),
		mxu:  mxu.New(),
		vpu:  vpu.New(),
		hbm:  hbm.NewTPUv3(),
	}
}

// Chip returns the hardware spec the core models.
func (c *Core) Chip() spec.Chip { return c.chip }

// HBM exposes the memory model (for capacity experiments).
func (c *Core) HBM() *hbm.HBM { return c.hbm }

// Counts returns a copy of the accumulated work counters.
func (c *Core) Counts() metrics.Counts { return c.counts }

// ResetCounts clears the accumulated work counters (e.g. after burn-in, so a
// measurement interval can be profiled on its own).
func (c *Core) ResetCounts() {
	c.counts = metrics.Counts{}
	c.mxu.Reset()
	c.vpu.Reset()
}

// MXUUtilization returns the fraction of issued MXU MAC slots doing useful
// work.
func (c *Core) MXUUtilization() float64 { return c.mxu.Utilization() }

// --- MXU category ---------------------------------------------------------

// MatMul multiplies a and b on the matrix unit.
func (c *Core) MatMul(a, b *tensor.Tensor) *tensor.Tensor {
	out, cost := c.mxu.MatMul(a, b)
	c.counts.MXUMacs += cost.PaddedMacs
	bytes := hbm.TensorBytes(a) + hbm.TensorBytes(b) + hbm.TensorBytes(out)
	c.counts.HBMBytes += bytes
	c.hbm.RecordRead(hbm.TensorBytes(a) + hbm.TensorBytes(b))
	c.hbm.RecordWrite(hbm.TensorBytes(out))
	c.counts.Ops++
	return out
}

// Conv2DWrap convolves input with kernel under periodic boundaries on the
// matrix unit (the appendix implementation's nearest-neighbour sum).
func (c *Core) Conv2DWrap(input, kernel *tensor.Tensor) *tensor.Tensor {
	out, cost := c.mxu.Conv2DWrap(input, kernel)
	c.counts.MXUMacs += cost.PaddedMacs
	bytes := hbm.TensorBytes(input) + hbm.TensorBytes(out)
	c.counts.HBMBytes += bytes
	c.hbm.RecordRead(hbm.TensorBytes(input))
	c.hbm.RecordWrite(hbm.TensorBytes(out))
	c.counts.Ops++
	return out
}

// --- VPU category ---------------------------------------------------------

func (c *Core) vpuTraffic(ts ...*tensor.Tensor) {
	var bytes int64
	for _, t := range ts {
		bytes += hbm.TensorBytes(t)
	}
	c.counts.HBMBytes += bytes
	c.counts.Ops++
}

// Add computes a + b on the vector unit.
func (c *Core) Add(a, b *tensor.Tensor) *tensor.Tensor {
	out, cost := c.vpu.Add(a, b)
	c.counts.VPUOps += cost.LaneOps
	c.vpuTraffic(a, b, out)
	return out
}

// Sub computes a - b on the vector unit.
func (c *Core) Sub(a, b *tensor.Tensor) *tensor.Tensor {
	out, cost := c.vpu.Sub(a, b)
	c.counts.VPUOps += cost.LaneOps
	c.vpuTraffic(a, b, out)
	return out
}

// Mul computes the element-wise product on the vector unit.
func (c *Core) Mul(a, b *tensor.Tensor) *tensor.Tensor {
	out, cost := c.vpu.Mul(a, b)
	c.counts.VPUOps += cost.LaneOps
	c.vpuTraffic(a, b, out)
	return out
}

// Scale computes s*a on the vector unit.
func (c *Core) Scale(a *tensor.Tensor, s float32) *tensor.Tensor {
	out, cost := c.vpu.Scale(a, s)
	c.counts.VPUOps += cost.LaneOps
	c.vpuTraffic(a, out)
	return out
}

// Exp computes exp(a) on the vector unit.
func (c *Core) Exp(a *tensor.Tensor) *tensor.Tensor {
	out, cost := c.vpu.Exp(a)
	c.counts.VPUOps += cost.LaneOps
	c.vpuTraffic(a, out)
	return out
}

// Less computes the element-wise a < b indicator on the vector unit.
func (c *Core) Less(a, b *tensor.Tensor) *tensor.Tensor {
	out, cost := c.vpu.Less(a, b)
	c.counts.VPUOps += cost.LaneOps
	c.vpuTraffic(a, b, out)
	return out
}

// Where computes cond ? a : b on the vector unit.
func (c *Core) Where(cond, a, b *tensor.Tensor) *tensor.Tensor {
	out, cost := c.vpu.Where(cond, a, b)
	c.counts.VPUOps += cost.LaneOps
	c.vpuTraffic(cond, a, b, out)
	return out
}

// RandomUniform generates uniforms from a sequential Philox stream on the
// vector unit.
func (c *Core) RandomUniform(dtype tensor.DType, p *rng.Philox, shape ...int) *tensor.Tensor {
	out, cost := c.vpu.RandomUniform(dtype, p, shape...)
	c.counts.VPUOps += cost.LaneOps
	c.vpuTraffic(out)
	return out
}

// RandomUniformSites generates the site-keyed uniforms for a strided window
// of the global lattice on the vector unit.
func (c *Core) RandomUniformSites(dtype tensor.DType, sk *rng.SiteKeyed, step uint64,
	rowOff, colOff, rows, cols, rowStride, colStride int) *tensor.Tensor {
	out, cost := c.vpu.RandomUniformSites(dtype, sk, step, rowOff, colOff, rows, cols, rowStride, colStride)
	c.counts.VPUOps += cost.LaneOps
	c.vpuTraffic(out)
	return out
}

// --- Data formatting category ---------------------------------------------

func (c *Core) formatTraffic(bytes int64) {
	c.counts.FormatBytes += bytes
	c.counts.HBMBytes += bytes
	c.counts.Ops++
}

// Slice copies out a sub-tensor (a data-formatting operation).
func (c *Core) Slice(t *tensor.Tensor, ranges ...tensor.Range) *tensor.Tensor {
	out := t.Slice(ranges...)
	c.formatTraffic(2 * hbm.TensorBytes(out))
	return out
}

// AddSlice adds src into the selected region of dst in place.
func (c *Core) AddSlice(dst, src *tensor.Tensor, ranges ...tensor.Range) {
	dst.AddSlice(src, ranges...)
	c.formatTraffic(3 * hbm.TensorBytes(src)) // read region, read src, write region
}

// SetSlice overwrites the selected region of dst with src.
func (c *Core) SetSlice(dst, src *tensor.Tensor, ranges ...tensor.Range) {
	dst.SetSlice(src, ranges...)
	c.formatTraffic(2 * hbm.TensorBytes(src))
}

// Roll circularly shifts t along axis.
func (c *Core) Roll(t *tensor.Tensor, axis, shift int) *tensor.Tensor {
	out := t.Roll(axis, shift)
	c.formatTraffic(2 * hbm.TensorBytes(out))
	return out
}

// Concat concatenates tensors along axis.
func (c *Core) Concat(axis int, ts ...*tensor.Tensor) *tensor.Tensor {
	out := tensor.Concat(axis, ts...)
	c.formatTraffic(2 * hbm.TensorBytes(out))
	return out
}

// Tile4D reshapes a rank-2 lattice into the [grid rows, grid cols, tile rows,
// tile cols] layout used on the TensorCore (a data-formatting operation).
func (c *Core) Tile4D(t *tensor.Tensor, tileRows, tileCols int) *tensor.Tensor {
	out := tensor.Tile4D(t, tileRows, tileCols)
	c.formatTraffic(2 * hbm.TensorBytes(out))
	return out
}

// Untile4D is the inverse of Tile4D.
func (c *Core) Untile4D(t *tensor.Tensor) *tensor.Tensor {
	out := tensor.Untile4D(t)
	c.formatTraffic(2 * hbm.TensorBytes(out))
	return out
}

// Upload stages a host tensor into device memory (infeed).
func (c *Core) Upload(name string, t *tensor.Tensor) (*tensor.Tensor, error) {
	if err := c.hbm.Alloc(name, t.Shape(), t.DType()); err != nil {
		return nil, err
	}
	c.formatTraffic(hbm.TensorBytes(t))
	return t.Clone(), nil
}

// --- Communication category ------------------------------------------------

// RecordComm accounts an inter-core exchange performed through the pod
// interconnect (called by the pod runtime, not by kernels directly).
func (c *Core) RecordComm(bytes, hops int64) {
	c.counts.CommBytes += bytes
	c.counts.CommHops += hops
	c.counts.CommEvents++
	c.counts.Ops++
}
