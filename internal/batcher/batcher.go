// Package batcher implements cross-request admission batching for the BERT
// hot path: the serve-side half of the paper's §6 "one model call, many
// predictions" amortization, applied *across* concurrent requests instead of
// only within one request's beam frontier.
//
// Requests do not call the engine; they Submit work items — (engine,
// sequence, mask) triples rendered as bert.MaskQuery — and receive a Future.
// A per-model dispatcher coalesces every queued item for that model into
// one PredictMaskedBatch call of at most MaxBatch items.  Because the
// engine's batched pass is element-wise equal to per-query calls whatever
// the batch composition, admission batching changes throughput, never
// results.
//
// Batching is natural only: a dispatcher with queued work calls the engine
// at once, and items submitted while that call is in flight queue for the
// next one, which takes everything pending the moment the call returns.  No
// item ever waits for company, so an idle engine adds no latency and a busy
// one batches exactly as deeply as the load requires.
//
// Dispatchers are ephemeral: one goroutine starts when the first item for a
// model arrives and exits as soon as its queue drains, so model-cache
// eviction and snapshot churn never leak goroutines.  Close fails all queued
// items and waits for dispatchers to finish — the system's drain path.
package batcher

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"kamel/internal/bert"
	"kamel/internal/obs"
)

// Engine answers one coalesced batch of masked predictions; *bert.Model is
// the production implementation.  The engine value is also the dispatcher
// key: items batch together exactly when they carry the same Engine.
type Engine interface {
	PredictMaskedBatch(queries []bert.MaskQuery) ([][]bert.Candidate, error)
}

// Priority orders items within a dispatch: all queued Interactive items are
// batched ahead of any Bulk item, so a flood of bulk batch-endpoint work
// cannot starve single interactive imputations (ROADMAP item 2's priority
// lanes, applied at the model queue).
type Priority int

const (
	// Interactive is the default lane: user-facing single imputations.
	Interactive Priority = iota
	// Bulk is the background lane: batch-endpoint and offline work.
	Bulk
	numLanes
)

// ParsePriority maps the wire form ("interactive", "bulk", "") to a lane;
// ok=false for anything else.  The empty string resolves to def.
func ParsePriority(s string, def Priority) (Priority, bool) {
	switch s {
	case "":
		return def, true
	case "interactive":
		return Interactive, true
	case "bulk":
		return Bulk, true
	}
	return def, false
}

// String returns the wire form of the priority.
func (p Priority) String() string {
	if p == Bulk {
		return "bulk"
	}
	return "interactive"
}

// Errors returned by Submit.
var (
	// ErrQueueFull reports that admitting the submission would overflow the
	// model's queue bound; the serving layer sheds it with 429.
	ErrQueueFull = errors.New("batcher: prediction queue full")
	// ErrClosed reports a submission to (or item drained by) a closed
	// batcher — the shutdown path.
	ErrClosed = errors.New("batcher: closed")
)

// Options configure a Batcher.  Zero values take the defaults.
type Options struct {
	// MaxBatch bounds the queries coalesced into one engine call
	// (default 64).
	MaxBatch int
	// MaxQueue bounds queued queries per model; submissions that would
	// overflow it fail with ErrQueueFull (default 1024; negative disables).
	MaxQueue int
	// MaxStarve bounds how long strict priority ordering may pass over a
	// queued bulk item: once the oldest bulk item has waited this long,
	// each dispatch reserves a quarter of the batch (at least one slot)
	// for the bulk lane until it catches up.  Without this, sustained
	// interactive traffic starves bulk items indefinitely — they hold
	// MaxQueue budget while never running, turning new work into 429s
	// (default 100ms; negative disables aging).
	MaxStarve time.Duration
	// Registry receives the batcher's metrics (queue depth, batch size,
	// queue wait); nil uses a private registry, keeping Stats() working.
	Registry *obs.Registry
}

func (o *Options) normalize() {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.MaxQueue == 0 {
		o.MaxQueue = 1024
	}
	if o.MaxQueue < 0 {
		o.MaxQueue = 0 // unbounded
	}
	if o.MaxStarve == 0 {
		o.MaxStarve = 100 * time.Millisecond
	}
	if o.MaxStarve < 0 {
		o.MaxStarve = 0 // aging disabled: strict priority
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
}

// item is one queued masked prediction: a query plus the slot of the future
// it resolves into.
type item struct {
	ctx context.Context
	q   bert.MaskQuery
	fut *Future
	idx int
	enq time.Time
}

// dispatcher owns one model's queue.  Lanes and depth are guarded by the
// batcher mutex; the goroutine draining it lives exactly as long as the
// queue is non-empty.
type dispatcher struct {
	eng   Engine
	lanes [numLanes][]*item
	depth int
}

// Batcher coalesces masked-prediction submissions into per-model engine
// batches.  All methods are safe for concurrent use.
type Batcher struct {
	opts Options

	mu     sync.Mutex
	disp   map[Engine]*dispatcher
	closed bool
	wg     sync.WaitGroup // running dispatcher goroutines

	// waitObs, when set, receives every item's queue wait as it dispatches —
	// the adaptive admission controller's congestion signal (see admission.go).
	waitObs atomic.Pointer[func(time.Duration)]

	batchSize *obs.Histogram
	queueWait *obs.Histogram
	dispatch  *obs.Histogram
	batches   *obs.Counter
	items     *obs.Counter
	overflows *obs.Counter
	cancelled *obs.Counter
}

// New creates a Batcher and registers its metric series.
func New(opts Options) *Batcher {
	opts.normalize()
	reg := opts.Registry
	b := &Batcher{
		opts: opts,
		disp: make(map[Engine]*dispatcher),
		batchSize: reg.Histogram("kamel_batcher_batch_size",
			"Queries coalesced into one PredictMaskedBatch engine call.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
		queueWait: reg.Histogram("kamel_batcher_queue_wait_seconds",
			"Time a query spent queued before its engine call started.",
			[]float64{0.0001, 0.00025, 0.0005, 0.001, 0.002, 0.004, 0.008,
				0.016, 0.032, 0.064, 0.128, 0.256, 0.512, 1}),
		dispatch: reg.Stage("batcher.dispatch"),
		batches: reg.Counter("kamel_batcher_batches_total",
			"Coalesced engine calls dispatched."),
		items: reg.Counter("kamel_batcher_items_total",
			"Queries dispatched through coalesced engine calls."),
		overflows: reg.Counter("kamel_batcher_overflow_total",
			"Submissions rejected because a model queue was full."),
		cancelled: reg.Counter("kamel_batcher_cancelled_total",
			"Queued queries dropped because their request context ended."),
	}
	reg.GaugeFunc("kamel_batcher_queue_depth",
		"Queries currently queued across all model dispatchers.", func() float64 {
			b.mu.Lock()
			defer b.mu.Unlock()
			total := 0
			for _, d := range b.disp {
				total += d.depth
			}
			return float64(total)
		})
	reg.GaugeFunc("kamel_batcher_dispatchers",
		"Model dispatchers currently live.", func() float64 {
			b.mu.Lock()
			defer b.mu.Unlock()
			return float64(len(b.disp))
		})
	return b
}

// SetQueueWaitObserver registers fn to receive every dispatched item's queue
// wait alongside the queue-wait histogram.  One observer is supported; nil
// unregisters.  The callback runs on the dispatcher goroutine, so it must be
// cheap and must not call back into the Batcher.
func (b *Batcher) SetQueueWaitObserver(fn func(time.Duration)) {
	if fn == nil {
		b.waitObs.Store(nil)
		return
	}
	b.waitObs.Store(&fn)
}

// Future is the pending result of one Submit call.  Exactly one of the
// results/err pair is meaningful once Wait returns.
type Future struct {
	mu      sync.Mutex
	results [][]bert.Candidate
	err     error
	pending int
	done    chan struct{}
}

// Wait blocks until every submitted query resolved (returning results in
// query order) or ctx ends.  A Wait abandoned by cancellation leaves the
// queued items to be discarded by their dispatcher; the engine never runs
// them.
func (f *Future) Wait(ctx context.Context) ([][]bert.Candidate, error) {
	select {
	case <-f.done:
		if f.err != nil {
			return nil, f.err
		}
		return f.results, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// deliver resolves one slot; the future completes when all slots resolved.
func (f *Future) deliver(idx int, cands []bert.Candidate) {
	f.mu.Lock()
	f.results[idx] = cands
	f.pending--
	fin := f.pending == 0
	f.mu.Unlock()
	if fin {
		close(f.done)
	}
}

// fail completes the future with err (first error wins) on behalf of one
// slot.
func (f *Future) fail(idx int, err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.pending--
	fin := f.pending == 0
	f.mu.Unlock()
	if fin {
		close(f.done)
	}
}

// Submit enqueues queries for eng on the given priority lane and returns a
// Future resolving to one candidate list per query, in query order.  The
// whole submission is admitted or rejected atomically: ErrQueueFull sheds it
// without partial enqueue, ErrClosed reports a shut-down batcher.
func (b *Batcher) Submit(ctx context.Context, eng Engine, queries []bert.MaskQuery, pri Priority) (*Future, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if pri < Interactive || pri >= numLanes {
		pri = Interactive
	}
	fut := &Future{
		results: make([][]bert.Candidate, len(queries)),
		pending: len(queries),
		done:    make(chan struct{}),
	}
	if len(queries) == 0 {
		close(fut.done)
		return fut, nil
	}
	now := time.Now()

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	d := b.disp[eng]
	if d == nil {
		d = &dispatcher{eng: eng}
		b.disp[eng] = d
		b.wg.Add(1)
		go b.run(d)
	}
	if b.opts.MaxQueue > 0 && d.depth+len(queries) > b.opts.MaxQueue {
		b.mu.Unlock()
		b.overflows.Inc()
		return nil, ErrQueueFull
	}
	for i := range queries {
		d.lanes[pri] = append(d.lanes[pri], &item{
			ctx: ctx, q: queries[i], fut: fut, idx: i, enq: now,
		})
	}
	d.depth += len(queries)
	b.mu.Unlock()
	return fut, nil
}

// take pops up to MaxBatch items in priority order, discarding items whose
// context already ended (their futures are failed with the context error,
// outside the lock).  Interactive items dispatch first, but once the oldest
// bulk item has waited past MaxStarve a quarter of the batch (at least one
// slot) is reserved for the bulk lane, so sustained interactive traffic
// drains bulk at a bounded fraction of throughput instead of starving it.
// It returns the live batch, or ok=false once the queue is empty, having
// removed the dispatcher so the next submission starts a fresh one.
func (b *Batcher) take(d *dispatcher) (batch []*item, ok bool) {
	b.mu.Lock()
	if d.depth == 0 || b.closed {
		delete(b.disp, d.eng)
		b.mu.Unlock()
		return nil, false
	}
	batch = make([]*item, 0, min(d.depth, b.opts.MaxBatch))
	var dead []*item
	drain := func(lane Priority, want int) {
		q := d.lanes[lane]
		i := 0
		for ; i < len(q) && want > 0; i++ {
			if q[i].ctx.Err() != nil {
				dead = append(dead, q[i])
				continue
			}
			batch = append(batch, q[i])
			want--
		}
		d.depth -= i
		d.lanes[lane] = q[i:]
	}
	reserve := 0
	if b.opts.MaxStarve > 0 {
		if q := d.lanes[Bulk]; len(q) > 0 && time.Since(q[0].enq) >= b.opts.MaxStarve {
			reserve = max(1, b.opts.MaxBatch/4)
		}
	}
	drain(Interactive, b.opts.MaxBatch-reserve)
	drain(Bulk, b.opts.MaxBatch-len(batch))
	// Backfill: if the bulk lane had fewer items than its reservation, the
	// spare slots go back to interactive work.
	drain(Interactive, b.opts.MaxBatch-len(batch))
	b.mu.Unlock()
	for _, it := range dead {
		b.cancelled.Inc()
		it.fut.fail(it.idx, it.ctx.Err())
	}
	return batch, true
}

// run drains one model's queue and exits when it is empty.
func (b *Batcher) run(d *dispatcher) {
	defer b.wg.Done()
	for {
		batch, ok := b.take(d)
		if !ok {
			return
		}
		if len(batch) == 0 {
			continue
		}
		now := time.Now()
		obsFn := b.waitObs.Load()
		for _, it := range batch {
			wait := now.Sub(it.enq)
			b.queueWait.Observe(wait.Seconds())
			if obsFn != nil {
				(*obsFn)(wait)
			}
		}
		b.batches.Inc()
		b.items.Add(int64(len(batch)))
		b.batchSize.Observe(float64(len(batch)))

		queries := make([]bert.MaskQuery, len(batch))
		for i, it := range batch {
			queries[i] = it.q
		}
		dispStart := time.Now()
		results, err := d.eng.PredictMaskedBatch(queries)
		b.dispatch.ObserveDuration(time.Since(dispStart))
		if err != nil {
			for _, it := range batch {
				it.fut.fail(it.idx, err)
			}
			continue
		}
		for i, it := range batch {
			it.fut.deliver(it.idx, results[i])
		}
	}
}

// Close rejects further submissions, fails every queued item with ErrClosed,
// and waits for in-flight dispatches to finish delivering.  It is the drain
// hook of the serving lifecycle and is idempotent.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		b.wg.Wait()
		return
	}
	b.closed = true
	var drops []*item
	for _, d := range b.disp {
		for lane := range d.lanes {
			drops = append(drops, d.lanes[lane]...)
			d.lanes[lane] = nil
		}
		d.depth = 0
	}
	b.mu.Unlock()
	for _, it := range drops {
		it.fut.fail(it.idx, ErrClosed)
	}
	b.wg.Wait()
}

// Stats is a point-in-time summary of coalescing behaviour, surfaced in
// /v1/stats.
type Stats struct {
	Batches        int64   `json:"batches"`
	Items          int64   `json:"items"`
	AvgBatch       float64 `json:"avg_batch"`
	Overflows      int64   `json:"overflows"`
	Cancelled      int64   `json:"cancelled"`
	QueueDepth     int     `json:"queue_depth"`
	Dispatchers    int     `json:"dispatchers"`
	QueueWaitP50MS float64 `json:"queue_wait_p50_ms"`
	QueueWaitP99MS float64 `json:"queue_wait_p99_ms"`
}

// Stats reads the current counters and queue-wait quantiles.
func (b *Batcher) Stats() Stats {
	st := Stats{
		Batches:   b.batches.Value(),
		Items:     b.items.Value(),
		Overflows: b.overflows.Value(),
		Cancelled: b.cancelled.Value(),
	}
	if st.Batches > 0 {
		st.AvgBatch = float64(st.Items) / float64(st.Batches)
	}
	b.mu.Lock()
	for _, d := range b.disp {
		st.QueueDepth += d.depth
	}
	st.Dispatchers = len(b.disp)
	b.mu.Unlock()
	snap := b.queueWait.Snapshot()
	st.QueueWaitP50MS = snap.Quantile(0.5) * 1e3
	st.QueueWaitP99MS = snap.Quantile(0.99) * 1e3
	return st
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
