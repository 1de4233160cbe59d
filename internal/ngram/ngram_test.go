package ngram

import (
	"context"
	"math"
	"testing"

	"kamel/internal/constraints"
	"kamel/internal/geo"
	"kamel/internal/grid"
	"kamel/internal/impute"
	"kamel/internal/tokenizer"
)

func mk(ids ...int) []grid.Cell {
	out := make([]grid.Cell, len(ids))
	for i, v := range ids {
		out[i] = grid.Cell(v)
	}
	return out
}

func TestPredictBridgesGap(t *testing.T) {
	m := New()
	// Corpus: 1→2→3 repeatedly, plus one 1→4.
	var seqs [][]grid.Cell
	for i := 0; i < 9; i++ {
		seqs = append(seqs, mk(1, 2, 3))
	}
	seqs = append(seqs, mk(1, 4))
	m.Train(seqs)

	cands, err := m.Predict(mk(1, 3), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	if cands[0].Cell != 2 {
		t.Errorf("top candidate %v, want 2 (the only token between 1 and 3)", cands[0].Cell)
	}
	var sum float64
	for _, c := range cands {
		sum += c.Prob
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %f", sum)
	}
}

func TestPredictUnseenContext(t *testing.T) {
	m := New()
	m.Train([][]grid.Cell{mk(1, 2, 3)})
	// Both contexts unseen: backoff still yields unigram-supported tokens.
	cands, err := m.Predict(mk(99, 98), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Log("backoff candidates:", cands) // allowed but not required
	}
}

func TestVocabAndTopK(t *testing.T) {
	m := New()
	m.Train([][]grid.Cell{mk(1, 2, 3, 4, 5)})
	if m.Vocab() != 5 {
		t.Errorf("vocab %d, want 5", m.Vocab())
	}
	cands, _ := m.Predict(mk(2, 4), 0, 1)
	if len(cands) > 1 {
		t.Errorf("topK not honored: %d candidates", len(cands))
	}
}

// TestDrivesImputation wires the n-gram model through the full multipoint
// imputation pipeline: a deterministic corridor corpus must be imputed
// perfectly.
func TestDrivesImputation(t *testing.T) {
	g := grid.NewHex(75)
	// Build a corridor of adjacent cells heading east.
	start := g.CellAt(geo.XY{X: 0, Y: 0})
	corridor := []grid.Cell{start}
	cur := start
	for i := 0; i < 12; i++ {
		cur = g.Neighbors(cur)[0] // east
		corridor = append(corridor, cur)
	}
	m := New()
	var seqs [][]grid.Cell
	for i := 0; i < 10; i++ {
		seqs = append(seqs, corridor)
	}
	m.Train(seqs)

	tk := tokenizer.NewFixed(g)
	ch := constraints.NewChecker(tk, 30)
	cfg := impute.DefaultConfig(tk, ch)
	cfg.Beam = 3
	req := impute.Request{S: corridor[0], D: corridor[len(corridor)-1]}
	res, err := impute.Beam(context.Background(), impute.PredictFunc(m.Predict), cfg, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatal("corridor imputation failed")
	}
	// The imputed tokens must be exactly the corridor.
	if len(res.Tokens) != len(corridor) {
		t.Fatalf("imputed %d tokens, want %d", len(res.Tokens), len(corridor))
	}
	for i := range corridor {
		if res.Tokens[i] != corridor[i] {
			t.Fatalf("token %d = %v, want %v", i, res.Tokens[i], corridor[i])
		}
	}
}
