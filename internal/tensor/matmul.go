package tensor

// parallelRows is the historical name of the shared pool primitive; the
// training kernels below still call it.  See pool.go for semantics.
func parallelRows(n int, flopsPerRow int, fn func(lo, hi int)) {
	ParallelRows(n, flopsPerRow, fn)
}

// MatMul computes dst = a·b.  Shapes: a is n×k, b is k×m, dst is n×m.  dst
// must not alias a or b.  The kernel iterates in i-k-j order so the inner
// loop streams both b and dst rows sequentially, and parallelizes over rows
// of a.
func MatMul(dst, a, b *Mat) {
	if a.C != b.R || dst.R != a.R || dst.C != b.C {
		panic("tensor: MatMul shape mismatch")
	}
	n, k, m := a.R, a.C, b.C
	parallelRows(n, k*m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			di := dst.A[i*m : (i+1)*m]
			for j := range di {
				di[j] = 0
			}
			ai := a.A[i*k : (i+1)*k]
			for p := 0; p < k; p++ {
				av := ai[p]
				if av == 0 {
					continue
				}
				bp := b.A[p*m : (p+1)*m]
				for j, bv := range bp {
					di[j] += av * bv
				}
			}
		}
	})
}

// MatMulAT computes dst = aᵀ·b.  Shapes: a is k×n, b is k×m, dst is n×m.
// Weight gradients (Xᵀ·dY) use it.  Parallelizes over rows of dst (columns
// of a) so workers never write the same destination row.
func MatMulAT(dst, a, b *Mat) {
	if a.R != b.R || dst.R != a.C || dst.C != b.C {
		panic("tensor: MatMulAT shape mismatch")
	}
	k, n, m := a.R, a.C, b.C
	parallelRows(n, k*m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			di := dst.A[i*m : (i+1)*m]
			for j := range di {
				di[j] = 0
			}
			for p := 0; p < k; p++ {
				av := a.A[p*n+i]
				if av == 0 {
					continue
				}
				bp := b.A[p*m : (p+1)*m]
				for j, bv := range bp {
					di[j] += av * bv
				}
			}
		}
	})
}

// matMulNaive is the reference triple loop used by tests and the kernel
// ablation benchmark.
func matMulNaive(dst, a, b *Mat) {
	if a.C != b.R || dst.R != a.R || dst.C != b.C {
		panic("tensor: matMulNaive shape mismatch")
	}
	for i := 0; i < a.R; i++ {
		for j := 0; j < b.C; j++ {
			var sum float32
			for p := 0; p < a.C; p++ {
				sum += a.At(i, p) * b.At(p, j)
			}
			dst.Set(i, j, sum)
		}
	}
}
