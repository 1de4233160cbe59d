package bert

import (
	"fmt"
	"strings"
	"testing"

	"kamel/internal/tensor"
	"kamel/internal/vocab"
)

// batchTestQueries builds a mixed-length batch that exercises grouping:
// three distinct sequence lengths, interleaved, with repeated lengths.
func batchTestQueries() []MaskQuery {
	return []MaskQuery{
		{Tokens: []int{vocab.CLS, 5, vocab.MASK, 7, vocab.SEP}, MaskPos: 2, TopK: 4},
		{Tokens: []int{vocab.CLS, vocab.MASK, 6, vocab.SEP}, MaskPos: 1, TopK: 3},
		{Tokens: []int{vocab.CLS, 4, 5, vocab.MASK, 7, 8, vocab.SEP}, MaskPos: 3, TopK: 5},
		{Tokens: []int{vocab.CLS, 8, vocab.MASK, 5, vocab.SEP}, MaskPos: 2, TopK: 4},
		{Tokens: []int{vocab.CLS, vocab.MASK, 9, vocab.SEP}, MaskPos: 1, TopK: 0},
		{Tokens: []int{vocab.CLS, 6, 7, vocab.MASK, 9, 10, vocab.SEP}, MaskPos: 3, TopK: 2},
	}
}

func assertBatchMatchesSequential(t *testing.T, m *Model, queries []MaskQuery) {
	t.Helper()
	got, err := m.PredictMaskedBatch(queries)
	if err != nil {
		t.Fatalf("PredictMaskedBatch: %v", err)
	}
	if len(got) != len(queries) {
		t.Fatalf("got %d result lists, want %d", len(got), len(queries))
	}
	for qi, q := range queries {
		want, err := m.PredictMasked(q.Tokens, q.MaskPos, q.TopK)
		if err != nil {
			t.Fatalf("PredictMasked query %d: %v", qi, err)
		}
		if len(got[qi]) != len(want) {
			t.Fatalf("query %d: %d candidates, want %d", qi, len(got[qi]), len(want))
		}
		for ci := range want {
			if got[qi][ci] != want[ci] {
				t.Fatalf("query %d candidate %d: batch %+v != sequential %+v",
					qi, ci, got[qi][ci], want[ci])
			}
		}
	}
}

// TestPredictMaskedBatchMatches is the engine's exactness contract: batched
// predictions must be element-wise identical (token IDs and probabilities)
// to per-query PredictMasked calls, across mixed sequence lengths.
func TestPredictMaskedBatchMatches(t *testing.T) {
	m, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	assertBatchMatchesSequential(t, m, batchTestQueries())

	// A single-query batch must match too (the n=1 kernel remainder path).
	assertBatchMatchesSequential(t, m, batchTestQueries()[:1])
}

// TestPredictMaskedBatchServedSizeParity runs the exactness contract at the
// served model size (d=64, FFN 256, 2000 tokens) with a 64-query batch of
// lengths 8–20, masked at the first, middle and last body positions.  Half
// the batch shares length 20, so that group's stacked matmuls, attention and
// the pruned last block's FFN cross the tensor package's parallel threshold
// and fan out over the worker pool; the other lengths stay small and serial.
// Layers=1 makes the pruned block the only one.
func TestPredictMaskedBatchServedSizeParity(t *testing.T) {
	for _, layers := range []int{1, 2} {
		t.Run(fmt.Sprintf("layers=%d", layers), func(t *testing.T) {
			cfg := DefaultConfig(2000)
			cfg.Layers = layers
			cfg.MaxSeqLen = 20
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := tensor.NewRNG(11)
			queries := make([]MaskQuery, 64)
			for qi := range queries {
				n := 20
				if qi >= 32 {
					n = 8 + qi%12 // 8..19
				}
				toks := make([]int, n)
				toks[0], toks[n-1] = vocab.CLS, vocab.SEP
				for i := 1; i < n-1; i++ {
					toks[i] = vocab.NumSpecial + rng.Intn(cfg.VocabSize-vocab.NumSpecial)
				}
				mask := []int{1, n / 2, n - 2}[qi%3]
				toks[mask] = vocab.MASK
				queries[qi] = MaskQuery{Tokens: toks, MaskPos: mask, TopK: 0}
			}
			assertBatchMatchesSequential(t, m, queries)
		})
	}
}

// TestPredictMaskedBatchAfterTrain retrains the model between batched calls;
// the transposed-weight cache must be invalidated so results track the new
// weights.
func TestPredictMaskedBatchAfterTrain(t *testing.T) {
	m, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	queries := batchTestQueries()
	before, err := m.PredictMaskedBatch(queries)
	if err != nil {
		t.Fatal(err)
	}

	seqs := [][]int{{5, 6, 7, 8}, {8, 7, 6, 5}, {4, 5, 6, 7, 8, 9}}
	if _, err := m.Train(seqs, TrainConfig{Steps: 5, Batch: 4, LR: 1e-2, MaskProb: 0.3, Seed: 7}); err != nil {
		t.Fatal(err)
	}

	assertBatchMatchesSequential(t, m, queries)

	after, err := m.PredictMaskedBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for qi := range before {
		for ci := range before[qi] {
			if before[qi][ci] != after[qi][ci] {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("predictions identical after training; stale transposed-weight cache?")
	}
}

func TestPredictMaskedBatchErrors(t *testing.T) {
	m, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}

	if out, err := m.PredictMaskedBatch(nil); err != nil || out != nil {
		t.Fatalf("empty batch: got (%v, %v), want (nil, nil)", out, err)
	}

	cases := []struct {
		name  string
		q     MaskQuery
		index string
	}{
		{"empty tokens", MaskQuery{Tokens: nil, MaskPos: 0}, "query 1"},
		{"token out of vocab", MaskQuery{Tokens: []int{vocab.CLS, 99, vocab.SEP}, MaskPos: 1}, "query 1"},
		{"mask position negative", MaskQuery{Tokens: []int{vocab.CLS, 5, vocab.SEP}, MaskPos: -1}, "query 1"},
		{"mask position past end", MaskQuery{Tokens: []int{vocab.CLS, 5, vocab.SEP}, MaskPos: 3}, "query 1"},
		{"too long", MaskQuery{Tokens: make([]int, 11), MaskPos: 0}, "query 1"},
	}
	valid := MaskQuery{Tokens: []int{vocab.CLS, vocab.MASK, vocab.SEP}, MaskPos: 1, TopK: 2}
	for _, tc := range cases {
		_, err := m.PredictMaskedBatch([]MaskQuery{valid, tc.q})
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.index) {
			t.Errorf("%s: error %q should name the offending %s", tc.name, err, tc.index)
		}
	}
}
