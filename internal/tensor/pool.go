package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Persistent worker pool for the parallel kernels.
//
// The training kernels used to spawn goroutines per matmul; at serving rates
// (hundreds of engine passes per second, each issuing several matmuls per
// layer) that is a steady churn of goroutine startups on the hot path.  The
// pool below starts GOMAXPROCS workers once, on the first parallel dispatch,
// and feeds them row chunks through a channel.
//
// Nested dispatch is the load-bearing case: bert's batched attention runs
// whole sequences on pool workers, and each sequence issues MatMul/MatMulTN
// calls that dispatch through this same pool once the model is large enough
// to cross the parallel threshold.  Two rules keep that deadlock-free:
//
//  1. Submission never blocks — a chunk that cannot be enqueued without
//     blocking runs inline on the submitter.
//  2. Waiting never idles — a submitter waiting for its chunks executes
//     other queued chunks (its own or other dispatches') instead of parking.
//     A pool worker that dispatched nested work therefore remains a queue
//     consumer, so queued chunks always have at least one active drainer
//     and every dispatch makes progress.
//
// Rule 2 is what the old implementation was missing: workers that enqueued
// nested subtasks into a non-full buffer and then parked in wg.Wait left
// nobody to drain the queue, hanging every engine pass.

// parallelThreshold is the approximate number of multiply-adds below which a
// kernel runs single-threaded; spawning parallel work for tiny products
// costs more than it saves.
const parallelThreshold = 64 * 64 * 64

// maxWorkers caps the chunks a single kernel fans out to.  It is a variable
// so tests on small machines can force the parallel path.
var maxWorkers = runtime.GOMAXPROCS(0)

// dispatch tracks one ParallelRows call's outstanding chunks.  The count is
// fixed before any chunk is published, so it strictly decreases and done
// closes exactly once, when the last chunk finishes.
type dispatch struct {
	pending atomic.Int64
	done    chan struct{}
}

func (d *dispatch) finish() {
	if d.pending.Add(-1) == 0 {
		close(d.done)
	}
}

// poolTask is one row chunk handed to a pool worker.
type poolTask struct {
	fn     func(lo, hi int)
	lo, hi int
	d      *dispatch
}

func (t poolTask) run() {
	t.fn(t.lo, t.hi)
	t.d.finish()
}

var (
	poolOnce  sync.Once
	poolTasks chan poolTask
)

// ensurePool starts the workers on first use.  Pool size is fixed at the
// maxWorkers value of the first dispatch; chunks beyond it queue (or run
// inline on the submitter), so a later larger maxWorkers stays correct.
func ensurePool() {
	poolOnce.Do(func() {
		n := maxWorkers
		if n < 1 {
			n = 1
		}
		poolTasks = make(chan poolTask, 8*n)
		for i := 0; i < n; i++ {
			go func() {
				for t := range poolTasks {
					t.run()
				}
			}()
		}
	})
}

// ParallelRows splits rows [0, n) across the worker pool and runs
// fn(lo, hi) on each chunk, or inline when the work is too small to be worth
// sharing (n*flopsPerRow under the parallel threshold, or a single-core
// process).  fn must be safe to run concurrently on disjoint chunks.  The
// caller executes the first chunk itself, then helps drain the task queue
// until its remaining chunks finish — so ParallelRows may be called from
// inside a ParallelRows chunk (nested kernels) without deadlocking the pool.
func ParallelRows(n int, flopsPerRow int, fn func(lo, hi int)) {
	if n == 0 {
		return
	}
	workers := maxWorkers
	if workers > n {
		workers = n
	}
	if workers <= 1 || n*flopsPerRow < parallelThreshold {
		fn(0, n)
		return
	}
	ensurePool()
	chunk := (n + workers - 1) / workers
	d := &dispatch{done: make(chan struct{})}
	// Count every chunk — including the caller's own — before publishing
	// any, so pending cannot hit zero (closing done) while chunks are still
	// being handed out.
	d.pending.Store(int64((n + chunk - 1) / chunk))
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		select {
		case poolTasks <- poolTask{fn: fn, lo: lo, hi: hi, d: d}:
		default:
			// Pool saturated: run the chunk on the caller rather than block.
			fn(lo, hi)
			d.finish()
		}
	}
	fn(0, chunk) // the caller's own share
	d.finish()
	// Help-drain wait: execute queued chunks (whichever dispatch they belong
	// to) until this dispatch completes.  Blocking here without consuming
	// would deadlock nested dispatch; a stolen chunk from another dispatch
	// only delays this return by bounded useful work.
	for d.pending.Load() > 0 {
		select {
		case t := <-poolTasks:
			t.run()
		case <-d.done:
		}
	}
}
