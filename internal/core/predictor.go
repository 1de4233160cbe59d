package core

import (
	"context"
	"fmt"

	"kamel/internal/batcher"
	"kamel/internal/bert"
	"kamel/internal/grid"
	"kamel/internal/impute"
	"kamel/internal/vocab"
)

// bundlePredictor adapts a trained modelBundle to impute.Predictor: the "Call
// BERT" arrow of Figure 1.  A gap query becomes a masked-token prediction:
// [CLS] …prefix… S [MASK] D …suffix… [SEP], with the window recentered around
// the mask when the segment outgrows the model's sequence length.  Every
// batch of gap queries — a beam frontier, a greedy round, the one query of
// the "No Multi." ablation — is submitted to the admission batcher, keyed by
// the bundle's engine, so concurrent requests hitting the same model coalesce
// into shared PredictMaskedBatch passes under the batcher's queue bounds and
// priority lanes.  The caller's model pin outlives the future Predict waits
// on, so the engine never runs an unpinned model.
type bundlePredictor struct {
	b   *modelBundle
	adm *batcher.Batcher
}

// maskQuery renders one gap query as the model-level masked prediction.
// Extra candidates are requested because specials and unknown cells are
// dropped during filtering.
func (p bundlePredictor) maskQuery(segment []grid.Cell, gapPos, topK int) (bert.MaskQuery, error) {
	if gapPos < 0 || gapPos+1 >= len(segment) {
		return bert.MaskQuery{}, fmt.Errorf("core: gap position %d out of range for segment of %d tokens", gapPos, len(segment))
	}
	maxBody := p.b.model.Cfg.MaxSeqLen - 2
	// Sequence body: segment tokens with MASK inserted after gapPos.
	body := make([]int, 0, len(segment)+1)
	maskIdx := -1
	for i, c := range segment {
		body = append(body, p.b.vocab.ID(c))
		if i == gapPos {
			maskIdx = len(body)
			body = append(body, vocab.MASK)
		}
	}
	// Window the body around the mask when too long.
	if len(body) > maxBody {
		start := maskIdx - maxBody/2
		if start < 0 {
			start = 0
		}
		if start+maxBody > len(body) {
			start = len(body) - maxBody
		}
		body = body[start : start+maxBody]
		maskIdx -= start
	}
	ids := make([]int, 0, len(body)+2)
	ids = append(ids, vocab.CLS)
	ids = append(ids, body...)
	ids = append(ids, vocab.SEP)
	maskIdx++ // account for CLS
	return bert.MaskQuery{Tokens: ids, MaskPos: maskIdx, TopK: topK + vocab.NumSpecial + 8}, nil
}

// filterCands drops special tokens and unknown cells, keeping topK.
func (p bundlePredictor) filterCands(raw []bert.Candidate, topK int) []impute.Candidate {
	out := make([]impute.Candidate, 0, topK)
	for _, c := range raw {
		cell, ok := p.b.vocab.Cell(c.Token)
		if !ok {
			continue // special token: not a place
		}
		out = append(out, impute.Candidate{Cell: cell, Prob: c.Prob})
		if len(out) == topK {
			break
		}
	}
	return out
}

// Predict implements impute.Predictor: render every gap query as a masked
// query, enqueue them on the model's dispatcher at the priority carried on
// ctx, wait for the engine pass (or ctx), and map the raw candidates back to
// grid cells.
func (p bundlePredictor) Predict(ctx context.Context, queries []impute.Query) ([][]impute.Candidate, error) {
	mqs := make([]bert.MaskQuery, len(queries))
	for i, q := range queries {
		mq, err := p.maskQuery(q.Segment, q.GapPos, q.TopK)
		if err != nil {
			return nil, err
		}
		mqs[i] = mq
	}
	fut, err := p.adm.Submit(ctx, p.b.model, mqs, PriorityOf(ctx))
	if err != nil {
		return nil, err
	}
	raws, err := fut.Wait(ctx)
	if err != nil {
		return nil, err
	}
	out := make([][]impute.Candidate, len(queries))
	for i, raw := range raws {
		out[i] = p.filterCands(raw, queries[i].TopK)
	}
	return out, nil
}
