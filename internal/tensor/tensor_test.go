package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"tpuising/internal/bf16"
	"tpuising/internal/rng"
)

func TestNewAndShape(t *testing.T) {
	a := New(Float32, 2, 3, 4)
	if a.Rank() != 3 || a.NumElements() != 24 {
		t.Fatalf("rank=%d n=%d", a.Rank(), a.NumElements())
	}
	sh := a.Shape()
	sh[0] = 99 // must not alias
	if a.Dim(0) != 2 || a.Dim(-1) != 4 {
		t.Fatalf("Dim wrong: %v", a.Shape())
	}
	if a.DType() != Float32 {
		t.Fatal("dtype")
	}
	for _, v := range a.Data() {
		if v != 0 {
			t.Fatal("New not zero-filled")
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][]int{{}, {0}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", shape)
				}
			}()
			New(Float32, shape...)
		}()
	}
}

func TestFullAndFromSlice(t *testing.T) {
	a := Full(Float32, 2.5, 3, 3)
	if a.At(1, 1) != 2.5 {
		t.Fatal("Full value wrong")
	}
	b := FromSlice(Float32, []float32{1, 2, 3, 4, 5, 6}, 2, 3)
	if b.At(1, 2) != 6 || b.At(0, 0) != 1 {
		t.Fatal("FromSlice layout wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice size mismatch did not panic")
		}
	}()
	FromSlice(Float32, []float32{1, 2}, 3)
}

func TestAtSetNegativeIndex(t *testing.T) {
	a := Zeros(4, 5)
	a.Set(7, -1, -1)
	if a.At(3, 4) != 7 {
		t.Fatal("negative index Set failed")
	}
	if a.At(-1, -1) != 7 {
		t.Fatal("negative index At failed")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	a := Zeros(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.At(2, 0)
}

func TestBF16Rounding(t *testing.T) {
	a := FromSlice(BFloat16, []float32{1.0001, 2.5, 3.14159}, 3)
	for i, want := range []float32{bf16.Round(1.0001), bf16.Round(2.5), bf16.Round(3.14159)} {
		if a.Data()[i] != want {
			t.Errorf("element %d = %v, want %v", i, a.Data()[i], want)
		}
	}
	a.Set(1.0001, 0)
	if a.At(0) != bf16.Round(1.0001) {
		t.Error("Set did not round to bf16")
	}
	if a.SizeBytes() != 6 {
		t.Errorf("SizeBytes = %d, want 6", a.SizeBytes())
	}
	f := a.AsType(Float32)
	if f.SizeBytes() != 12 {
		t.Errorf("f32 SizeBytes = %d", f.SizeBytes())
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromSlice(Float32, []float32{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	b.Set(99, 0, 0)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone aliases data")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("Equal(clone) = false")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := FromSlice(Float32, []float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.Set(42, 0, 0)
	if a.At(0, 0) != 42 {
		t.Fatal("Reshape must share data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad reshape did not panic")
		}
	}()
	a.Reshape(4, 2)
}

func TestEqualAllClose(t *testing.T) {
	a := FromSlice(Float32, []float32{1, 2}, 2)
	b := FromSlice(Float32, []float32{1, 2.0005}, 2)
	if a.Equal(b) {
		t.Fatal("Equal false positive")
	}
	if !a.AllClose(b, 0.001) {
		t.Fatal("AllClose false negative")
	}
	if a.AllClose(b, 0.0001) {
		t.Fatal("AllClose false positive")
	}
	c := FromSlice(Float32, []float32{1, 2, 3}, 3)
	if a.Equal(c) || a.AllClose(c, 10) {
		t.Fatal("shape mismatch must not compare equal")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice(Float32, []float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice(Float32, []float32{10, 20, 30, 40}, 2, 2)
	if got := Add(a, b).Data(); got[3] != 44 {
		t.Errorf("Add = %v", got)
	}
	if got := Sub(b, a).Data(); got[0] != 9 {
		t.Errorf("Sub = %v", got)
	}
	if got := Mul(a, b).Data(); got[2] != 90 {
		t.Errorf("Mul = %v", got)
	}
	if got := Scale(a, 0.5).Data(); got[1] != 1 {
		t.Errorf("Scale = %v", got)
	}
	e := Exp(Zeros(2, 2))
	if e.At(0, 0) != 1 {
		t.Errorf("Exp(0) = %v", e.At(0, 0))
	}
}

func TestLessWhere(t *testing.T) {
	a := FromSlice(Float32, []float32{1, 5, 3}, 3)
	b := FromSlice(Float32, []float32{2, 2, 3}, 3)
	l := Less(a, b)
	want := []float32{1, 0, 0}
	for i := range want {
		if l.Data()[i] != want[i] {
			t.Fatalf("Less = %v", l.Data())
		}
	}
	w := Where(l, Full(Float32, -1, 3), Full(Float32, 1, 3))
	if w.Data()[0] != -1 || w.Data()[1] != 1 {
		t.Fatalf("Where = %v", w.Data())
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice(Float32, []float32{1, 2}, 2)
	b := FromSlice(Float32, []float32{3, 4}, 2)
	AddInPlace(a, b)
	if a.Data()[1] != 6 {
		t.Fatal("AddInPlace")
	}
	MulInPlace(a, b)
	if a.Data()[0] != 12 {
		t.Fatal("MulInPlace")
	}
	CopyFrom(a, b)
	if !a.Equal(b) {
		t.Fatal("CopyFrom")
	}
	Fill(a, 7)
	if a.Data()[0] != 7 || a.Data()[1] != 7 {
		t.Fatal("Fill")
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice(Float32, []float32{1, 2, 3, 4}, 4)
	if Sum(a) != 10 {
		t.Errorf("Sum = %v", Sum(a))
	}
	if Mean(a) != 2.5 {
		t.Errorf("Mean = %v", Mean(a))
	}
	mn, mx := MinMax(a)
	if mn != 1 || mx != 4 {
		t.Errorf("MinMax = %v %v", mn, mx)
	}
}

func TestTranspose(t *testing.T) {
	a := FromSlice(Float32, []float32{1, 2, 3, 4, 5, 6}, 2, 3)
	tr := Transpose(a)
	if tr.Dim(0) != 3 || tr.Dim(1) != 2 || tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Errorf("Transpose = %v %v", tr.Shape(), tr.Data())
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a, b := Zeros(2, 2), Zeros(2, 3)
	for name, fn := range map[string]func(){
		"Add":  func() { Add(a, b) },
		"Mul":  func() { Mul(a, b) },
		"Less": func() { Less(a, b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s shape mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestTypePromotion(t *testing.T) {
	a := Full(BFloat16, 1, 2)
	b := Full(BFloat16, 2, 2)
	c := Full(Float32, 2, 2)
	if Add(a, b).DType() != BFloat16 {
		t.Error("bf16+bf16 should stay bf16")
	}
	if Add(a, c).DType() != Float32 {
		t.Error("bf16+f32 should promote to f32")
	}
}

func TestBF16OpRounding(t *testing.T) {
	// 1 + 1/512 is not representable in bf16; the sum must round back to 1.
	a := Full(BFloat16, 1, 4)
	b := Full(BFloat16, 1.0/512.0, 4)
	// b itself rounds to a small but nonzero bf16 value.
	s := Add(a, b)
	for _, v := range s.Data() {
		if v != bf16.Round(1+bf16.Round(1.0/512.0)) {
			t.Fatalf("bf16 Add not rounded: %v", v)
		}
	}
}

func TestAddCommutativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		p := rng.New(uint64(seed))
		a := Zeros(3, 4)
		b := Zeros(3, 4)
		p.Fill(a.Data())
		p.Fill(b.Data())
		return Add(a, b).Equal(Add(b, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMulDistributesOverAddApprox(t *testing.T) {
	p := rng.New(3)
	a, b, c := Zeros(8, 8), Zeros(8, 8), Zeros(8, 8)
	p.Fill(a.Data())
	p.Fill(b.Data())
	p.Fill(c.Data())
	left := Mul(a, Add(b, c))
	right := Add(Mul(a, b), Mul(a, c))
	if !left.AllClose(right, 1e-5) {
		t.Fatal("distributivity violated beyond float tolerance")
	}
}

func TestStringer(t *testing.T) {
	s := FromSlice(BFloat16, []float32{1, 2}, 2).String()
	if s == "" || DType(99).String() == "" || Float32.String() != "float32" || BFloat16.String() != "bfloat16" {
		t.Fatal("String() empty")
	}
}

func TestExpMatchesMath(t *testing.T) {
	vals := []float32{-8, -2, -0.5, 0, 0.5, 2}
	a := FromSlice(Float32, vals, len(vals))
	e := Exp(a)
	for i, v := range vals {
		want := float32(math.Exp(float64(v)))
		if math.Abs(float64(e.Data()[i]-want)) > 1e-6*float64(want)+1e-12 {
			t.Errorf("Exp(%v) = %v, want %v", v, e.Data()[i], want)
		}
	}
}
