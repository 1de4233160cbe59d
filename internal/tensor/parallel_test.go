package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withWorkers runs fn with the kernel fan-out forced to n chunks, so the
// parallel code path is exercised even on single-core machines.
func withWorkers(t testing.TB, n int, fn func()) {
	old := maxWorkers
	maxWorkers = n
	defer func() { maxWorkers = old }()
	fn()
}

// randMat fills an r×c matrix with reproducible pseudo-random values.
func randMat(r, c int, seed uint64) *Mat {
	rng := NewRNG(seed)
	m := NewMat(r, c)
	for i := range m.A {
		m.A[i] = float32(rng.NormFloat64()) * 0.5
	}
	return m
}

// TestMatMulTNParallelParity is the kernel acceptance gate: the pooled
// parallel MatMulTN must produce output element-wise EQUAL (==, not within a
// tolerance) to the serial blocked kernel, across shapes that hit the tiled
// path, the remainder rows/columns, and chunk boundaries that split a 2-row
// tile.
func TestMatMulTNParallelParity(t *testing.T) {
	shapes := []struct{ n, k, m int }{
		{1, 8, 8},     // single row: no tiling at all
		{2, 16, 4},    // one exact 2×4 tile column
		{7, 33, 13},   // odd everything: every remainder loop runs
		{64, 64, 64},  // exactly at the parallel threshold
		{640, 48, 96}, // typical stacked-batch activation shape
		{963, 48, 51}, // large with odd chunk boundaries
	}
	for _, sh := range shapes {
		for _, withBias := range []bool{false, true} {
			name := fmt.Sprintf("%dx%dx%d_bias=%v", sh.n, sh.k, sh.m, withBias)
			t.Run(name, func(t *testing.T) {
				a := randMat(sh.n, sh.k, 1)
				bt := randMat(sh.m, sh.k, 2)
				var bias []float32
				if withBias {
					bias = randMat(1, sh.m, 3).A
				}
				want := NewMat(sh.n, sh.m)
				matMulTNRange(want, a, bt, bias, 0, sh.n)
				for _, workers := range []int{2, 3, 5, 16} {
					got := NewMat(sh.n, sh.m)
					withWorkers(t, workers, func() {
						MatMulTN(got, a, bt, bias)
					})
					for i := range want.A {
						if got.A[i] != want.A[i] {
							t.Fatalf("workers=%d: element %d: parallel %v != serial %v",
								workers, i, got.A[i], want.A[i])
						}
					}
				}
			})
		}
	}
}

// TestParallelRowsCoversAllRows proves the chunking covers [0, n) exactly
// once for awkward n/worker combinations.
func TestParallelRowsCoversAllRows(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 64, 100, 257} {
		for _, workers := range []int{1, 2, 3, 7, 64} {
			hits := make([]int32, n)
			withWorkers(t, workers, func() {
				ParallelRows(n, parallelThreshold, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						hits[i]++
					}
				})
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: row %d covered %d times", n, workers, i, h)
				}
			}
		}
	}
}

// TestNestedDispatchNoDeadlock reproduces the PaperConfig-scale serving
// hang: every pool worker runs an outer chunk (a sequence of a batched
// attention pass) that itself dispatches a nested parallel kernel through
// the same pool.  Before waiters helped drain the queue, all workers could
// enqueue their subtasks and then park waiting on them, leaving no consumer
// — the process hung forever.  The stream count exceeds any plausible pool
// size so the saturation window is actually hit, and fn work is trivial so
// the test is fast when the pool is correct.
func TestNestedDispatchNoDeadlock(t *testing.T) {
	withWorkers(t, 2, func() {
		const fanout, iters = 8, 25
		streams := 2*runtime.GOMAXPROCS(0) + 32
		var total atomic.Int64
		done := make(chan struct{})
		go func() {
			defer close(done)
			var wg sync.WaitGroup
			for g := 0; g < streams; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for iter := 0; iter < iters; iter++ {
						ParallelRows(fanout, parallelThreshold, func(lo, hi int) {
							for i := lo; i < hi; i++ {
								ParallelRows(fanout, parallelThreshold, func(nlo, nhi int) {
									for j := nlo; j < nhi; j++ {
										total.Add(1)
									}
								})
							}
						})
					}
				}()
			}
			wg.Wait()
		}()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatal("nested parallel dispatch deadlocked: pool workers parked with queued subtasks")
		}
		if want := int64(streams * iters * fanout * fanout); total.Load() != want {
			t.Fatalf("nested dispatch ran %d row units, want %d", total.Load(), want)
		}
	})
}

// TestMatMulParallelParity covers the training kernels now routed through the
// shared pool: the same element-wise equality bar as MatMulTN.
func TestMatMulParallelParity(t *testing.T) {
	a := randMat(129, 65, 4)
	b := randMat(65, 67, 5)
	want := NewMat(129, 67)
	withWorkers(t, 1, func() { MatMul(want, a, b) })
	got := NewMat(129, 67)
	withWorkers(t, 4, func() { MatMul(got, a, b) })
	for i := range want.A {
		if got.A[i] != want.A[i] {
			t.Fatalf("element %d: parallel %v != serial %v", i, got.A[i], want.A[i])
		}
	}
}
