package tensor

import (
	"fmt"
	"math"

	"tpuising/internal/bf16"
)

// Add returns a + b element-wise.
func Add(a, b *Tensor) *Tensor {
	mustSameShape("Add", a, b)
	out := New(resultDType(a, b), a.shape...)
	for i := range out.data {
		out.data[i] = a.data[i] + b.data[i]
	}
	return out.round()
}

// Sub returns a - b element-wise.
func Sub(a, b *Tensor) *Tensor {
	mustSameShape("Sub", a, b)
	out := New(resultDType(a, b), a.shape...)
	for i := range out.data {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out.round()
}

// Mul returns the element-wise (Hadamard) product a * b.
func Mul(a, b *Tensor) *Tensor {
	mustSameShape("Mul", a, b)
	out := New(resultDType(a, b), a.shape...)
	for i := range out.data {
		out.data[i] = a.data[i] * b.data[i]
	}
	return out.round()
}

// Scale returns s * a element-wise.
func Scale(a *Tensor, s float32) *Tensor {
	out := New(a.dtype, a.shape...)
	for i := range out.data {
		out.data[i] = a.data[i] * s
	}
	return out.round()
}

// Exp returns exp(a) element-wise.
func Exp(a *Tensor) *Tensor {
	out := New(a.dtype, a.shape...)
	for i := range out.data {
		out.data[i] = float32(math.Exp(float64(a.data[i])))
	}
	return out.round()
}

// Less returns a tensor of 0/1 values with 1 where a < b.
func Less(a, b *Tensor) *Tensor {
	mustSameShape("Less", a, b)
	out := New(resultDType(a, b), a.shape...)
	for i := range out.data {
		if a.data[i] < b.data[i] {
			out.data[i] = 1
		}
	}
	return out
}

// Where returns cond*a + (1-cond)*b where cond holds 0/1 values.
func Where(cond, a, b *Tensor) *Tensor {
	mustSameShape("Where", cond, a)
	mustSameShape("Where", cond, b)
	out := New(resultDType(a, b), a.shape...)
	for i := range out.data {
		if cond.data[i] != 0 {
			out.data[i] = a.data[i]
		} else {
			out.data[i] = b.data[i]
		}
	}
	return out.round()
}

// AddInPlace adds b into a (a += b), respecting a's dtype rounding.
func AddInPlace(a, b *Tensor) {
	mustSameShape("AddInPlace", a, b)
	if a.dtype == BFloat16 {
		for i := range a.data {
			a.data[i] = bf16.Round(a.data[i] + b.data[i])
		}
		return
	}
	for i := range a.data {
		a.data[i] += b.data[i]
	}
}

// MulInPlace multiplies a by b element-wise in place.
func MulInPlace(a, b *Tensor) {
	mustSameShape("MulInPlace", a, b)
	if a.dtype == BFloat16 {
		for i := range a.data {
			a.data[i] = bf16.Round(a.data[i] * b.data[i])
		}
		return
	}
	for i := range a.data {
		a.data[i] *= b.data[i]
	}
}

// CopyFrom copies b's values into a (a and b must share shape).
func CopyFrom(a, b *Tensor) {
	mustSameShape("CopyFrom", a, b)
	copy(a.data, b.data)
	a.round()
}

// Fill sets every element of a to v.
func Fill(a *Tensor, v float32) {
	if a.dtype == BFloat16 {
		v = bf16.Round(v)
	}
	for i := range a.data {
		a.data[i] = v
	}
}

// Sum returns the sum of all elements in float64 precision.
func Sum(a *Tensor) float64 {
	var s float64
	for _, v := range a.data {
		s += float64(v)
	}
	return s
}

// Mean returns the mean of all elements in float64 precision.
func Mean(a *Tensor) float64 { return Sum(a) / float64(len(a.data)) }

// MinMax returns the minimum and maximum elements.
func MinMax(a *Tensor) (min, max float32) {
	min, max = a.data[0], a.data[0]
	for _, v := range a.data {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// Transpose returns the transpose of a rank-2 tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose needs rank 2, got %v", a.shape))
	}
	r, c := a.shape[0], a.shape[1]
	out := New(a.dtype, c, r)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			out.data[j*r+i] = a.data[i*c+j]
		}
	}
	return out
}
