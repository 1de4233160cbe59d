package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"kamel/internal/batcher"
	"kamel/internal/geo"
	"kamel/internal/grid"
	"kamel/internal/impute"
)

// trajEqual compares two imputed trajectories point-wise.
func trajEqual(a, b geo.Trajectory) bool {
	if len(a.Points) != len(b.Points) {
		return false
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			return false
		}
	}
	return true
}

// TestAdmissionBatchingParity: the same trajectories impute to identical
// outputs whether their frontiers are coalesced into shared engine passes or
// every query runs in an engine pass of its own — coalescing is a throughput
// device, never a semantic one.
func TestAdmissionBatchingParity(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	f := newFixture(t, nil)
	sys := trainedSystem(t, f)
	// A read-only view whose batcher never coalesces: same models, same
	// search, one query per engine pass.
	plain := sys.WithAblation(false, false)
	plain.adm = batcher.New(batcher.Options{MaxBatch: 1})
	t.Cleanup(plain.adm.Close)

	for i, tr := range f.test[:4] {
		sp := tr.Sparsify(800)
		got, _, err := sys.Impute(sp)
		if err != nil {
			t.Fatalf("traj %d (batched): %v", i, err)
		}
		want, _, err := plain.Impute(sp)
		if err != nil {
			t.Fatalf("traj %d (one query per pass): %v", i, err)
		}
		if !trajEqual(got, want) {
			t.Fatalf("traj %d: batched imputation diverges from unbatched (%d vs %d points)",
				i, len(got.Points), len(want.Points))
		}
	}
}

// TestNoMultipointParity: the "No Multi." ablation asks BERT through the same
// predictor as the multipoint algorithms — each gap's result equals the one
// computed from a direct bert.PredictMasked call — and, like them, a
// cancelled request aborts instead of running to completion.
func TestNoMultipointParity(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	f := newFixture(t, nil)
	sys := trainedSystem(t, f).WithAblation(false, true)
	cfg := impute.Config{
		Tokenizer: sys.tok, Checker: sys.checker,
		MaxGapMeters: sys.cfg.MaxGapM, MaxCalls: sys.cfg.MaxCalls, TopK: sys.cfg.TopK, Beam: sys.cfg.Beam, Alpha: 1,
	}
	served := bundlePredictor{b: sys.global, adm: sys.adm}
	ref := maskedReference(sys.global)
	ctx := context.Background()
	filled := 0
	for i, req := range gapRequests(sys, f.test[:4], 800) {
		got, err := singleShot(ctx, served, cfg, req)
		if err != nil {
			t.Fatalf("gap %d: %v", i, err)
		}
		want, err := singleShot(ctx, ref, cfg, req)
		if err != nil {
			t.Fatalf("gap %d (reference): %v", i, err)
		}
		if got.Failed != want.Failed || got.Prob != want.Prob || len(got.Tokens) != len(want.Tokens) {
			t.Fatalf("gap %d: served %+v, reference %+v", i, got, want)
		}
		for j := range got.Tokens {
			if got.Tokens[j] != want.Tokens[j] {
				t.Fatalf("gap %d token %d: served %v, reference %v", i, j, got.Tokens[j], want.Tokens[j])
			}
		}
		if !got.Failed {
			filled++
		}
	}
	if filled == 0 {
		t.Fatal("no gap was filled; the comparison is vacuous")
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := sys.ImputeContext(cancelled, f.test[0].Sparsify(800)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled No-Multi imputation: err = %v, want context.Canceled", err)
	}
}

// TestConcurrentImputeThroughBatcher is the -race stress gate: many streams
// impute concurrently through the admission batcher, and every stream's
// output must equal the single-threaded reference — whatever batches their
// queries coalesced into.  A rotating subset of requests is cancelled
// mid-flight to exercise discard-from-queue under load.
func TestConcurrentImputeThroughBatcher(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	f := newFixture(t, nil)
	sys := trainedSystem(t, f)

	inputs := make([]geo.Trajectory, 4)
	refs := make([]geo.Trajectory, len(inputs))
	for i := range inputs {
		inputs[i] = f.test[i].Sparsify(800)
		ref, _, err := sys.Impute(inputs[i])
		if err != nil {
			t.Fatalf("reference %d: %v", i, err)
		}
		refs[i] = ref
	}

	const streams = 8
	const rounds = 6
	var wg sync.WaitGroup
	errCh := make(chan error, streams)
	for g := 0; g < streams; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(inputs)
				if (g+r)%5 == 4 {
					// Cancel mid-flight: the only acceptable error is the
					// context's own.
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+g)*time.Millisecond)
					_, _, err := sys.ImputeContext(ctx, inputs[i])
					cancel()
					if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
						errCh <- err
						return
					}
					continue
				}
				out, _, err := sys.Impute(inputs[i])
				if err != nil {
					errCh <- err
					return
				}
				if !trajEqual(out, refs[i]) {
					errCh <- errors.New("concurrent imputation diverged from single-threaded reference")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	st := sys.adm.Stats()
	if st.Items == 0 || st.Batches == 0 {
		t.Fatalf("no work flowed through the batcher: %+v", st)
	}
	// Cancelled stragglers may still be queued for a moment; the dispatcher
	// must discard them and exit shortly after the load stops.
	deadline := time.Now().Add(5 * time.Second)
	for st.QueueDepth != 0 || st.Dispatchers != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue not drained after load: %+v", st)
		}
		time.Sleep(time.Millisecond)
		st = sys.adm.Stats()
	}
}

// TestOverloadSheds: a frontier larger than the per-model queue bound is
// shed with ErrOverloaded rather than served degraded or deadlocked.
func TestOverloadSheds(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	f := newFixture(t, func(c *Config) { c.BatchMaxQueue = 1 })
	sys := trainedSystem(t, f)
	sp := f.test[0].Sparsify(800)
	_, _, err := sys.Impute(sp)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
}

// TestCloseDrainsBatcher shuts the system down while streams are imputing:
// every in-flight request returns promptly (success, ErrClosed through the
// predictor, or ErrNotTrained after unpublish) and nothing deadlocks.
func TestCloseDrainsBatcher(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	f := newFixture(t, nil)
	sys := trainedSystem(t, f)
	sp := f.test[0].Sparsify(800)

	const streams = 6
	var wg sync.WaitGroup
	errCh := make(chan error, streams)
	start := make(chan struct{})
	for g := 0; g < streams; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for {
				_, _, err := sys.Impute(sp)
				if err == nil {
					continue
				}
				if errors.Is(err, batcher.ErrClosed) || errors.Is(err, ErrNotTrained) {
					return // clean shutdown outcome
				}
				errCh <- err
				return
			}
		}()
	}
	close(start)
	time.Sleep(20 * time.Millisecond) // let streams get in flight
	done := make(chan struct{})
	go func() {
		sys.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close hung with streams in flight")
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if st := sys.adm.Stats(); st.QueueDepth != 0 || st.Dispatchers != 0 {
		t.Fatalf("batcher not drained by Close: %+v", st)
	}
}

// maskedReference answers every gap query with a bert.PredictMasked call of
// its own, past the batcher: the single-sequence oracle the serving predictor
// must match.
func maskedReference(b *modelBundle) impute.Predictor {
	p := bundlePredictor{b: b}
	return impute.PredictFunc(func(segment []grid.Cell, gapPos, topK int) ([]impute.Candidate, error) {
		mq, err := p.maskQuery(segment, gapPos, topK)
		if err != nil {
			return nil, err
		}
		raw, err := b.model.PredictMasked(mq.Tokens, mq.MaskPos, mq.TopK)
		if err != nil {
			return nil, err
		}
		return p.filterCands(raw, topK), nil
	})
}
