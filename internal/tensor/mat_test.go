package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewMatAndAccessors(t *testing.T) {
	m := NewMat(2, 3)
	if m.R != 2 || m.C != 3 || len(m.A) != 6 {
		t.Fatalf("bad shape: %v", m)
	}
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Error("Set/At round-trip failed")
	}
	r := m.Row(1)
	if len(r) != 3 || r[2] != 7 {
		t.Error("Row view broken")
	}
	r[0] = 5
	if m.At(1, 0) != 5 {
		t.Error("Row must be a view, not a copy")
	}
}

func TestFromSlice(t *testing.T) {
	a := []float32{1, 2, 3, 4}
	m := FromSlice(2, 2, a)
	if m.At(1, 0) != 3 {
		t.Error("FromSlice layout wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("FromSlice with wrong length must panic")
		}
	}()
	FromSlice(3, 2, a)
}

func TestCloneAndCopyFrom(t *testing.T) {
	m := NewMat(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage")
	}
	m.CopyFrom(c)
	if m.At(0, 0) != 9 {
		t.Error("CopyFrom did not copy")
	}
}

func TestAddScaleZero(t *testing.T) {
	m := FromSlice(1, 3, []float32{1, 2, 3})
	n := FromSlice(1, 3, []float32{10, 20, 30})
	m.Add(n)
	if m.At(0, 2) != 33 {
		t.Error("Add wrong")
	}
	m.Scale(2)
	if m.At(0, 0) != 22 {
		t.Error("Scale wrong")
	}
	m.Zero()
	for _, v := range m.A {
		if v != 0 {
			t.Error("Zero wrong")
		}
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := NewRNG(42)
	shapes := []struct{ n, k, m int }{
		{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {16, 16, 16}, {33, 65, 17}, {100, 80, 120},
	}
	for _, s := range shapes {
		a := NewMat(s.n, s.k)
		b := NewMat(s.k, s.m)
		NormalInit(a, 1, rng)
		NormalInit(b, 1, rng)
		got := NewMat(s.n, s.m)
		want := NewMat(s.n, s.m)
		MatMul(got, a, b)
		matMulNaive(want, a, b)
		for i := range got.A {
			if math.Abs(float64(got.A[i]-want.A[i])) > 1e-3 {
				t.Fatalf("shape %v: element %d = %f, want %f", s, i, got.A[i], want.A[i])
			}
		}
	}
}

// TestMatMulTNMatchesNaive pins MatMulTN's exactness on the shapes of the
// MLM head (16 and 1 queries against a 2000-token vocabulary) and of one
// attention head's scores: every element must equal the naive k-ascending sum
// bit for bit, not within a tolerance.
func TestMatMulTNMatchesNaive(t *testing.T) {
	rng := NewRNG(7)
	for _, s := range []struct{ n, k, m int }{{16, 64, 2000}, {1, 64, 2000}, {15, 16, 15}} {
		a := NewMat(s.n, s.k)
		bt := NewMat(s.m, s.k)
		NormalInit(a, 1, rng)
		NormalInit(bt, 1, rng)
		got := NewMat(s.n, s.m)
		MatMulTN(got, a, bt, nil)
		want := NewMat(s.n, s.m)
		matMulNaive(want, a, Transpose(bt))
		for i := range got.A {
			if got.A[i] != want.A[i] {
				t.Fatalf("shape %v: element %d = %v, want %v", s, i, got.A[i], want.A[i])
			}
		}
	}
}

func TestMatMulAT(t *testing.T) {
	rng := NewRNG(9)
	a := NewMat(8, 5) // aᵀ is 5x8
	b := NewMat(8, 6)
	NormalInit(a, 1, rng)
	NormalInit(b, 1, rng)
	got := NewMat(5, 6)
	MatMulAT(got, a, b)
	at := NewMat(5, 8)
	for i := 0; i < 8; i++ {
		for j := 0; j < 5; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	want := NewMat(5, 6)
	matMulNaive(want, at, b)
	for i := range got.A {
		if math.Abs(float64(got.A[i]-want.A[i])) > 1e-4 {
			t.Fatalf("element %d = %f, want %f", i, got.A[i], want.A[i])
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	a := NewMat(2, 3)
	b := NewMat(4, 5)
	dst := NewMat(2, 5)
	defer func() {
		if recover() == nil {
			t.Error("MatMul with mismatched inner dims must panic")
		}
	}()
	MatMul(dst, a, b)
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(123)
	b := NewRNG(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	if NewRNG(0).Uint64() == 0 {
		t.Error("zero seed must be remapped")
	}
}

func TestRNGUniformity(t *testing.T) {
	rng := NewRNG(1)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := rng.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %f", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %f, want ~0.5", mean)
	}
}

func TestRNGPerm(t *testing.T) {
	rng := NewRNG(5)
	p := rng.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatal("Perm is not a permutation")
		}
		seen[v] = true
	}
}

func TestNormFloat64Moments(t *testing.T) {
	rng := NewRNG(77)
	var sum, sumSq float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := rng.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %f, want ~1", variance)
	}
}

func TestXavierInitScale(t *testing.T) {
	rng := NewRNG(3)
	m := NewMat(64, 64)
	XavierInit(m, rng)
	var sumSq float64
	for _, v := range m.A {
		sumSq += float64(v) * float64(v)
	}
	std := math.Sqrt(sumSq / float64(len(m.A)))
	want := math.Sqrt(2.0 / 128.0)
	if math.Abs(std-want) > want/4 {
		t.Errorf("Xavier std = %f, want ~%f", std, want)
	}
}

func TestCellProperties(t *testing.T) {
	// quick.Check that Add is commutative through float32 (exact for these ints).
	f := func(a, b int8) bool {
		m := FromSlice(1, 1, []float32{float32(a)})
		n := FromSlice(1, 1, []float32{float32(b)})
		m.Add(n)
		m2 := FromSlice(1, 1, []float32{float32(b)})
		n2 := FromSlice(1, 1, []float32{float32(a)})
		m2.Add(n2)
		return m.At(0, 0) == m2.At(0, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
