package tensor

import (
	"fmt"
	"testing"
)

// The matmul kernel ablation called out in DESIGN.md: the parallel blocked
// kernel vs the naive triple loop, across the shapes BERT training actually
// produces (activations × weights).
func BenchmarkMatMulParallel(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := NewRNG(1)
			a := NewMat(n, n)
			c := NewMat(n, n)
			dst := NewMat(n, n)
			NormalInit(a, 1, rng)
			NormalInit(c, 1, rng)
			b.SetBytes(int64(n * n * n * 2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMul(dst, a, c)
			}
		})
	}
}

func BenchmarkMatMulNaive(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := NewRNG(1)
			a := NewMat(n, n)
			c := NewMat(n, n)
			dst := NewMat(n, n)
			NormalInit(a, 1, rng)
			NormalInit(c, 1, rng)
			b.SetBytes(int64(n * n * n * 2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matMulNaive(dst, a, c)
			}
		})
	}
}

func BenchmarkSoftmax(b *testing.B) {
	rng := NewRNG(1)
	m := NewMat(64, 2048)
	NormalInit(m, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SoftmaxRows(m)
	}
}
