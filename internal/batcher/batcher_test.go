package batcher

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"kamel/internal/bert"
)

// fakeEngine answers each query deterministically from its first token, and
// records every batch composition it was called with.  An optional gate
// channel blocks calls so tests can pile submissions up behind a busy engine
// (the natural-batching regime); an optional started channel announces each
// call's batch before it blocks, so a test knows a pass is in flight.
type fakeEngine struct {
	mu      sync.Mutex
	batches [][]bert.MaskQuery
	started chan []bert.MaskQuery // if non-nil, each call sends its batch first
	gate    chan struct{}         // if non-nil, each call receives once before running
	fail    error                 // if non-nil, calls return this error
}

func (e *fakeEngine) PredictMaskedBatch(queries []bert.MaskQuery) ([][]bert.Candidate, error) {
	cp := make([]bert.MaskQuery, len(queries))
	copy(cp, queries)
	if e.started != nil {
		e.started <- cp
	}
	if e.gate != nil {
		<-e.gate
	}
	e.mu.Lock()
	e.batches = append(e.batches, cp)
	fail := e.fail
	e.mu.Unlock()
	if fail != nil {
		return nil, fail
	}
	out := make([][]bert.Candidate, len(queries))
	for i, q := range queries {
		out[i] = []bert.Candidate{{Token: q.Tokens[0], Prob: 1}}
	}
	return out, nil
}

func (e *fakeEngine) calls() [][]bert.MaskQuery {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([][]bert.MaskQuery(nil), e.batches...)
}

func q(tok int) bert.MaskQuery {
	return bert.MaskQuery{Tokens: []int{tok}, MaskPos: 0, TopK: 1}
}

// TestSubmitDeliversInOrder checks the basic contract: results come back in
// query order and match what the engine produced for each query.
func TestSubmitDeliversInOrder(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	eng := &fakeEngine{}
	fut, err := b.Submit(context.Background(), eng, []bert.MaskQuery{q(7), q(8), q(9)}, Interactive)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res, err := fut.Wait(context.Background())
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	for i, want := range []int{7, 8, 9} {
		if len(res[i]) != 1 || res[i][0].Token != want {
			t.Fatalf("slot %d: got %+v, want token %d", i, res[i], want)
		}
	}
}

// TestNaturalBatching piles concurrent submissions behind a gated engine and
// checks they coalesce: the total engine calls must be far fewer than the
// submissions, and every query must still resolve to its own answer.
func TestNaturalBatching(t *testing.T) {
	b := New(Options{MaxBatch: 64})
	defer b.Close()
	eng := &fakeEngine{gate: make(chan struct{})}

	const n = 24
	var wg sync.WaitGroup
	errs := make([]error, n)
	toks := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fut, err := b.Submit(context.Background(), eng, []bert.MaskQuery{q(100 + i)}, Interactive)
			if err != nil {
				errs[i] = err
				return
			}
			res, err := fut.Wait(context.Background())
			if err != nil {
				errs[i] = err
				return
			}
			toks[i] = res[0][0].Token
		}(i)
	}
	// Let the first dispatch start (and block on the gate) while the rest
	// queue up behind it, then release the engine until everything drains.
	time.Sleep(20 * time.Millisecond)
	go func() {
		for {
			select {
			case eng.gate <- struct{}{}:
			case <-time.After(200 * time.Millisecond):
				return
			}
		}
	}()
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("submission %d: %v", i, errs[i])
		}
		if toks[i] != 100+i {
			t.Fatalf("submission %d: got token %d, want %d", i, toks[i], 100+i)
		}
	}
	calls := eng.calls()
	if len(calls) >= n {
		t.Fatalf("no coalescing: %d engine calls for %d submissions", len(calls), n)
	}
	var maxBatch int
	for _, c := range calls {
		if len(c) > maxBatch {
			maxBatch = len(c)
		}
	}
	if maxBatch < 2 {
		t.Fatalf("expected at least one coalesced batch, largest was %d", maxBatch)
	}
	st := b.Stats()
	if st.Items != n || st.Batches != int64(len(calls)) {
		t.Fatalf("stats mismatch: %+v vs %d calls", st, len(calls))
	}
	if st.AvgBatch <= 1 {
		t.Fatalf("avg batch %v, want > 1", st.AvgBatch)
	}
}

// TestPriorityOrdering queues bulk then interactive work behind a busy
// engine and checks the next dispatch carries the interactive items first.
func TestPriorityOrdering(t *testing.T) {
	b := New(Options{MaxBatch: 4})
	defer b.Close()
	eng := &fakeEngine{gate: make(chan struct{})}

	// First submission occupies the dispatcher (blocked on the gate).
	first, err := b.Submit(context.Background(), eng, []bert.MaskQuery{q(1)}, Bulk)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	time.Sleep(10 * time.Millisecond)

	// Queue 4 bulk then 2 interactive queries; MaxBatch is 4, so the next
	// dispatch must be the 2 interactive plus only 2 of the bulk.
	bulk, err := b.Submit(context.Background(), eng, []bert.MaskQuery{q(10), q(11), q(12), q(13)}, Bulk)
	if err != nil {
		t.Fatalf("Submit bulk: %v", err)
	}
	inter, err := b.Submit(context.Background(), eng, []bert.MaskQuery{q(20), q(21)}, Interactive)
	if err != nil {
		t.Fatalf("Submit interactive: %v", err)
	}

	go func() {
		for i := 0; i < 3; i++ {
			eng.gate <- struct{}{}
		}
	}()
	for _, fut := range []*Future{first, bulk, inter} {
		if _, err := fut.Wait(context.Background()); err != nil {
			t.Fatalf("Wait: %v", err)
		}
	}

	calls := eng.calls()
	if len(calls) != 3 {
		t.Fatalf("got %d engine calls, want 3: %v", len(calls), calls)
	}
	second := calls[1]
	if len(second) != 4 {
		t.Fatalf("second batch size %d, want 4", len(second))
	}
	if second[0].Tokens[0] != 20 || second[1].Tokens[0] != 21 {
		t.Fatalf("interactive items not first in batch: %v", second)
	}
	if second[2].Tokens[0] != 10 || second[3].Tokens[0] != 11 {
		t.Fatalf("bulk items not FIFO after interactive: %v", second)
	}
}

// TestBulkAging checks the anti-starvation valve: once a queued bulk item
// has waited past MaxStarve, the next dispatch reserves a slot for the bulk
// lane even though enough interactive work is queued to fill the whole
// batch.  Without aging, sustained interactive traffic would pin bulk items
// in the queue forever.
func TestBulkAging(t *testing.T) {
	b := New(Options{MaxBatch: 2, MaxStarve: 20 * time.Millisecond})
	defer b.Close()
	eng := &fakeEngine{gate: make(chan struct{})}

	// First submission occupies the dispatcher (blocked on the gate).
	first, err := b.Submit(context.Background(), eng, []bert.MaskQuery{q(1)}, Interactive)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	time.Sleep(10 * time.Millisecond)

	// One bulk item, then more interactive work than a batch holds.
	bulk, err := b.Submit(context.Background(), eng, []bert.MaskQuery{q(50)}, Bulk)
	if err != nil {
		t.Fatalf("Submit bulk: %v", err)
	}
	inter, err := b.Submit(context.Background(), eng, []bert.MaskQuery{q(10), q(11), q(12)}, Interactive)
	if err != nil {
		t.Fatalf("Submit interactive: %v", err)
	}

	// Let the bulk item age past MaxStarve while the engine stays busy.
	time.Sleep(30 * time.Millisecond)
	go func() {
		for i := 0; i < 3; i++ {
			eng.gate <- struct{}{}
		}
	}()
	for _, fut := range []*Future{first, bulk, inter} {
		if _, err := fut.Wait(context.Background()); err != nil {
			t.Fatalf("Wait: %v", err)
		}
	}

	calls := eng.calls()
	if len(calls) != 3 {
		t.Fatalf("got %d engine calls, want 3: %v", len(calls), calls)
	}
	// Dispatch 2 must carry the aged bulk item in its reserved slot, behind
	// the interactive item that fills the rest of the batch.
	second := calls[1]
	if len(second) != 2 || second[0].Tokens[0] != 10 || second[1].Tokens[0] != 50 {
		t.Fatalf("aged bulk item not dispatched in reserved slot: %v", second)
	}
	// With the bulk lane drained, dispatch 3 is pure interactive FIFO.
	third := calls[2]
	if len(third) != 2 || third[0].Tokens[0] != 11 || third[1].Tokens[0] != 12 {
		t.Fatalf("post-aging dispatch wrong: %v", third)
	}
}

// TestCancellationMidQueue cancels a submission while it is queued behind a
// busy engine: its future fails with the context error, the engine never
// sees its queries, and other work is untouched.
func TestCancellationMidQueue(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	eng := &fakeEngine{gate: make(chan struct{})}

	first, err := b.Submit(context.Background(), eng, []bert.MaskQuery{q(1)}, Interactive)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	time.Sleep(10 * time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	doomed, err := b.Submit(ctx, eng, []bert.MaskQuery{q(2)}, Interactive)
	if err != nil {
		t.Fatalf("Submit doomed: %v", err)
	}
	survivor, err := b.Submit(context.Background(), eng, []bert.MaskQuery{q(3)}, Interactive)
	if err != nil {
		t.Fatalf("Submit survivor: %v", err)
	}
	cancel()

	go func() {
		for i := 0; i < 2; i++ {
			eng.gate <- struct{}{}
		}
	}()
	if _, err := doomed.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("doomed future: err=%v, want context.Canceled", err)
	}
	if _, err := first.Wait(context.Background()); err != nil {
		t.Fatalf("first: %v", err)
	}
	res, err := survivor.Wait(context.Background())
	if err != nil || res[0][0].Token != 3 {
		t.Fatalf("survivor: res=%v err=%v", res, err)
	}
	for _, c := range eng.calls() {
		for _, qq := range c {
			if qq.Tokens[0] == 2 {
				t.Fatalf("cancelled query reached the engine: %v", c)
			}
		}
	}
	if got := b.Stats().Cancelled; got != 1 {
		t.Fatalf("cancelled counter = %d, want 1", got)
	}
}

// TestQueueOverflow checks submissions shed with ErrQueueFull once the
// per-model queue bound is hit, without partial enqueue.
func TestQueueOverflow(t *testing.T) {
	b := New(Options{MaxQueue: 3})
	defer b.Close()
	eng := &fakeEngine{gate: make(chan struct{})}

	first, err := b.Submit(context.Background(), eng, []bert.MaskQuery{q(1)}, Interactive)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	time.Sleep(10 * time.Millisecond)
	// Queue holds 0 now (item 1 is in flight); 3 fit, the 4th query tips it.
	if _, err := b.Submit(context.Background(), eng, []bert.MaskQuery{q(2), q(3)}, Interactive); err != nil {
		t.Fatalf("Submit within bound: %v", err)
	}
	if _, err := b.Submit(context.Background(), eng, []bert.MaskQuery{q(4), q(5)}, Interactive); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow err = %v, want ErrQueueFull", err)
	}
	if got := b.Stats().Overflows; got != 1 {
		t.Fatalf("overflow counter = %d, want 1", got)
	}
	go func() {
		for i := 0; i < 2; i++ {
			eng.gate <- struct{}{}
		}
	}()
	if _, err := first.Wait(context.Background()); err != nil {
		t.Fatalf("first: %v", err)
	}
}

// TestEngineErrorFailsBatch propagates an engine error to every future in
// the failed batch.
func TestEngineErrorFailsBatch(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	boom := fmt.Errorf("engine exploded")
	eng := &fakeEngine{fail: boom}
	fut, err := b.Submit(context.Background(), eng, []bert.MaskQuery{q(1), q(2)}, Interactive)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := fut.Wait(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("Wait err = %v, want %v", err, boom)
	}
}

// TestCloseDrains checks Close fails queued items with ErrClosed, rejects
// later submissions, and leaves no dispatcher running.
func TestCloseDrains(t *testing.T) {
	b := New(Options{})
	eng := &fakeEngine{gate: make(chan struct{})}

	first, err := b.Submit(context.Background(), eng, []bert.MaskQuery{q(1)}, Interactive)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	time.Sleep(10 * time.Millisecond)
	queued, err := b.Submit(context.Background(), eng, []bert.MaskQuery{q(2)}, Interactive)
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}

	done := make(chan struct{})
	go func() {
		b.Close()
		close(done)
	}()
	// Close must fail the queued item promptly even with the engine busy.
	if _, err := queued.Wait(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("queued future err = %v, want ErrClosed", err)
	}
	eng.gate <- struct{}{} // release the in-flight batch
	if _, err := first.Wait(context.Background()); err != nil {
		t.Fatalf("in-flight batch must still deliver: %v", err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return after engine drained")
	}
	if _, err := b.Submit(context.Background(), eng, []bert.MaskQuery{q(3)}, Interactive); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Submit err = %v, want ErrClosed", err)
	}
	if st := b.Stats(); st.Dispatchers != 0 || st.QueueDepth != 0 {
		t.Fatalf("dispatchers/queue not drained: %+v", st)
	}
}

// gatedSubmit returns a batcher with default options, a fake engine that
// announces each pass on started and then blocks on gate, and a helper that
// submits one interactive query carrying tok.  Tests drive the engine
// through the channels, so what they see holds on every schedule.
func gatedSubmit(t *testing.T) (*Batcher, *fakeEngine, func(tok int) *Future) {
	t.Helper()
	b := New(Options{})
	eng := &fakeEngine{started: make(chan []bert.MaskQuery), gate: make(chan struct{})}
	submit := func(tok int) *Future {
		t.Helper()
		fut, err := b.Submit(context.Background(), eng, []bert.MaskQuery{q(tok)}, Interactive)
		if err != nil {
			t.Fatalf("Submit %d: %v", tok, err)
		}
		return fut
	}
	return b, eng, submit
}

func batchTokens(batch []bert.MaskQuery) string {
	var out []int
	for _, q := range batch {
		out = append(out, q.Tokens[0])
	}
	return fmt.Sprint(out)
}

// TestWindowedCoalescing checks that the window in which work coalesces is
// the engine pass in flight: work submitted while the engine runs A goes,
// all of it, into the next pass, so the calls are exactly [[A], [B, C]].
func TestWindowedCoalescing(t *testing.T) {
	b, eng, submit := gatedSubmit(t)
	defer b.Close()

	futA := submit(1)
	if got := batchTokens(<-eng.started); got != "[1]" {
		t.Fatalf("first pass = %v, want [1]", got)
	}
	// The engine is now blocked on A; B and C queue behind it.
	futB, futC := submit(2), submit(3)
	eng.gate <- struct{}{}
	if got := batchTokens(<-eng.started); got != "[2 3]" {
		t.Fatalf("second pass = %v, want [2 3]", got)
	}
	eng.gate <- struct{}{}
	for i, fut := range []*Future{futA, futB, futC} {
		res, err := fut.Wait(context.Background())
		if err != nil || res[0][0].Token != i+1 {
			t.Fatalf("future %d: res=%v err=%v", i+1, res, err)
		}
	}
	if st := b.Stats(); st.Batches != 2 || st.Items != 3 {
		t.Fatalf("stats = %+v, want 2 batches of 3 items", st)
	}
}

// TestSingleStreamNoWait checks a lone submission to an idle dispatcher
// reaches the engine at once: the engine is called with it while no other
// pass is in flight and nothing else is queued, with no window to wait out.
func TestSingleStreamNoWait(t *testing.T) {
	b, eng, submit := gatedSubmit(t)
	defer b.Close()

	fut := submit(1)
	if got := batchTokens(<-eng.started); got != "[1]" {
		t.Fatalf("pass = %v, want [1]", got)
	}
	if st := b.Stats(); st.QueueDepth != 0 {
		t.Fatalf("queue depth %d while the lone pass runs, want 0", st.QueueDepth)
	}
	eng.gate <- struct{}{}
	res, err := fut.Wait(context.Background())
	if err != nil || res[0][0].Token != 1 {
		t.Fatalf("res=%v err=%v", res, err)
	}
	if st := b.Stats(); st.Batches != 1 || st.Items != 1 {
		t.Fatalf("stats = %+v, want 1 batch of 1 item", st)
	}
}

// TestEmptySubmit resolves immediately.
func TestEmptySubmit(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	fut, err := b.Submit(context.Background(), &fakeEngine{}, nil, Interactive)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res, err := fut.Wait(context.Background())
	if err != nil || len(res) != 0 {
		t.Fatalf("empty submit: res=%v err=%v", res, err)
	}
}

// TestDispatcherExitsWhenDrained checks the per-model goroutine is ephemeral:
// after work drains, no dispatcher entry remains (so evicted models cannot
// leak goroutines), and a later submission starts a fresh one.
func TestDispatcherExitsWhenDrained(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	eng := &fakeEngine{}
	for round := 0; round < 3; round++ {
		fut, err := b.Submit(context.Background(), eng, []bert.MaskQuery{q(round)}, Interactive)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if _, err := fut.Wait(context.Background()); err != nil {
			t.Fatalf("Wait: %v", err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for b.Stats().Dispatchers != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("dispatcher did not exit after drain (round %d)", round)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestParsePriority covers the wire mapping.
func TestParsePriority(t *testing.T) {
	cases := []struct {
		in   string
		def  Priority
		want Priority
		ok   bool
	}{
		{"", Interactive, Interactive, true},
		{"", Bulk, Bulk, true},
		{"interactive", Bulk, Interactive, true},
		{"bulk", Interactive, Bulk, true},
		{"urgent", Interactive, Interactive, false},
	}
	for _, c := range cases {
		got, ok := ParsePriority(c.in, c.def)
		if got != c.want || ok != c.ok {
			t.Fatalf("ParsePriority(%q, %v) = %v,%v want %v,%v", c.in, c.def, got, ok, c.want, c.ok)
		}
	}
}
