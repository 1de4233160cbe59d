package kamel

// Benchmarks for the batched masked-prediction engine: the same 8-query beam
// frontier answered one PredictMasked call at a time versus one
// PredictMaskedBatch pass, and the full beam-search impute path on a trained
// reproduction-scale model with and without the batch engine.  Recorded
// numbers live in EXPERIMENTS.md.

import (
	"context"
	"sync"
	"testing"

	"kamel/internal/bert"
	"kamel/internal/constraints"
	"kamel/internal/geo"
	"kamel/internal/grid"
	"kamel/internal/impute"
	"kamel/internal/roadnet"
	"kamel/internal/tokenizer"
	"kamel/internal/trajgen"
	"kamel/internal/vocab"
)

// batchBench holds a reproduction-scale model trained once per process.
type batchBench struct {
	model   *bert.Model
	v       *vocab.Vocab
	g       grid.Grid
	ch      *constraints.Checker
	req     impute.Request
	queries []bert.MaskQuery // an 8-candidate beam frontier
}

var (
	batchBenchOnce   sync.Once
	batchBenchShared *batchBench
)

func batchBenchFixture(b *testing.B) *batchBench {
	b.Helper()
	batchBenchOnce.Do(func() {
		city := roadnet.DefaultCityConfig()
		city.Width, city.Height = 1500, 1500
		net := roadnet.GenerateCity(city)
		proj := geo.NewProjection(41.15, -8.61)
		gen := trajgen.DefaultConfig(60)
		gen.GPSNoiseMeters = 3
		trajs, err := trajgen.Generate(net, proj, gen)
		if err != nil {
			panic(err)
		}

		g := grid.NewHex(75)
		v := vocab.New()
		var seqs [][]int
		for _, tr := range trajs {
			var ids []int
			var last grid.Cell = -1
			for _, p := range tr.Points {
				c := g.CellAt(proj.ToXY(p))
				if c == last {
					continue
				}
				last = c
				ids = append(ids, v.Add(c))
			}
			if len(ids) >= 2 {
				seqs = append(seqs, ids)
			}
		}

		m, err := bert.New(bert.DefaultConfig(v.Size()))
		if err != nil {
			panic(err)
		}
		tc := bert.DefaultTrainConfig()
		tc.Steps, tc.Batch = 220, 12
		if _, err := m.Train(seqs, tc); err != nil {
			panic(err)
		}

		// An 8-candidate frontier: windows of a real token sequence, each
		// with the mask at a different interior position — the shape of
		// Algorithm 2 expanding eight partial segments in one iteration.
		base := seqs[0]
		for len(base) < 16 {
			base = append(base, seqs[1]...)
		}
		queries := make([]bert.MaskQuery, 8)
		for i := range queries {
			w := append([]int{vocab.CLS}, base[i:i+6]...)
			w = append(w, vocab.SEP)
			w[1+i%5+1] = vocab.MASK
			queries[i] = bert.MaskQuery{Tokens: w, MaskPos: 1 + i%5 + 1, TopK: 20}
		}

		// One realistic multi-token gap for the end-to-end beam benchmarks.
		s := g.CellAt(geo.XY{X: 0, Y: 0})
		d := g.CellAt(geo.XY{X: 500, Y: 0})
		batchBenchShared = &batchBench{
			model:   m,
			v:       v,
			g:       g,
			ch:      constraints.NewChecker(tokenizer.NewFixed(g), 30),
			req:     impute.Request{S: s, D: d, TimeDiff: 50},
			queries: queries,
		}
	})
	return batchBenchShared
}

// BenchmarkPredictMaskedSequential answers the 8-query frontier with eight
// single-sequence forward passes (the pre-batching hot path).
func BenchmarkPredictMaskedSequential(b *testing.B) {
	f := batchBenchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range f.queries {
			if _, err := f.model.PredictMasked(q.Tokens, q.MaskPos, q.TopK); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPredictMaskedBatch answers the same frontier in one batched
// engine pass; results are element-wise identical to the sequential path.
func BenchmarkPredictMaskedBatch(b *testing.B) {
	f := batchBenchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.model.PredictMaskedBatch(f.queries); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPredictor adapts the trained model to the impute layer the same way
// core's predictor does (segments here stay well under MaxSeqLen, so no
// windowing is needed).
type benchPredictor struct {
	m *bert.Model
	v *vocab.Vocab
}

func (p benchPredictor) maskQuery(segment []grid.Cell, gapPos, topK int) bert.MaskQuery {
	ids := make([]int, 0, len(segment)+3)
	ids = append(ids, vocab.CLS)
	maskIdx := -1
	for i, c := range segment {
		ids = append(ids, p.v.ID(c))
		if i == gapPos {
			maskIdx = len(ids)
			ids = append(ids, vocab.MASK)
		}
	}
	ids = append(ids, vocab.SEP)
	return bert.MaskQuery{Tokens: ids, MaskPos: maskIdx, TopK: topK + vocab.NumSpecial + 8}
}

func (p benchPredictor) filter(raw []bert.Candidate, topK int) []impute.Candidate {
	out := make([]impute.Candidate, 0, topK)
	for _, c := range raw {
		cell, ok := p.v.Cell(c.Token)
		if !ok {
			continue
		}
		out = append(out, impute.Candidate{Cell: cell, Prob: c.Prob})
		if len(out) == topK {
			break
		}
	}
	return out
}

// predictOne answers one query with a single-sequence forward pass: behind
// impute.PredictFunc it is the pre-batching beam search, one BERT call per
// frontier candidate.
func (p benchPredictor) predictOne(segment []grid.Cell, gapPos int, topK int) ([]impute.Candidate, error) {
	mq := p.maskQuery(segment, gapPos, topK)
	raw, err := p.m.PredictMasked(mq.Tokens, mq.MaskPos, mq.TopK)
	if err != nil {
		return nil, err
	}
	return p.filter(raw, topK), nil
}

// Predict implements impute.Predictor: the whole frontier in one
// PredictMaskedBatch pass.
func (p benchPredictor) Predict(_ context.Context, queries []impute.Query) ([][]impute.Candidate, error) {
	mqs := make([]bert.MaskQuery, len(queries))
	for i, q := range queries {
		mqs[i] = p.maskQuery(q.Segment, q.GapPos, q.TopK)
	}
	raws, err := p.m.PredictMaskedBatch(mqs)
	if err != nil {
		return nil, err
	}
	out := make([][]impute.Candidate, len(queries))
	for i, raw := range raws {
		out[i] = p.filter(raw, queries[i].TopK)
	}
	return out, nil
}

func (f *batchBench) imputeCfg() impute.Config {
	cfg := impute.DefaultConfig(tokenizer.NewFixed(f.g), f.ch)
	cfg.MaxGapMeters = 120
	cfg.MaxCalls = 150
	cfg.Beam = 6
	cfg.TopK = 40
	return cfg
}

// BenchmarkBeamImputeSequential runs Algorithm 2 end to end with one BERT
// call per frontier candidate.
func BenchmarkBeamImputeSequential(b *testing.B) {
	f := batchBenchFixture(b)
	p := impute.PredictFunc(benchPredictor{m: f.model, v: f.v}.predictOne)
	cfg := f.imputeCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := impute.Beam(context.Background(), p, cfg, f.req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBeamImputeBatched runs the same search with each iteration's
// whole frontier answered by one PredictMaskedBatch pass.
func BenchmarkBeamImputeBatched(b *testing.B) {
	f := batchBenchFixture(b)
	p := benchPredictor{m: f.model, v: f.v}
	cfg := f.imputeCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := impute.Beam(context.Background(), p, cfg, f.req); err != nil {
			b.Fatal(err)
		}
	}
}
