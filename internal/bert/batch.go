package bert

import (
	"fmt"
	"math"

	"kamel/internal/tensor"
)

// This file is the batched inference engine: the "Call BERT" arrow of the
// paper's Figure 1 amortized over many queries at once.  Beam search (paper
// §6.2) expands a whole frontier of candidate segments per iteration; issuing
// those masked predictions as one PredictMaskedBatch call stacks B sequences
// into a single [B×L, d] activation matrix, so every projection and FFN
// matmul runs once per layer instead of B times, on the transposed-weight
// register-tiled kernels of tensor.MatMulTN.  Attention remains per-sequence
// (a sequence must not attend across batch neighbors), computed over aliased
// row views of the stacked matrix.  The MLM head reads only mask rows, so the
// last block computes keys and values for every row but everything else for
// one row per sequence.
//
// The engine is inference-only: it allocates no backward caches, reuses its
// activation buffers across layers, and is bit-compatible with the training
// forward pass — PredictMaskedBatch returns predictions element-wise equal to
// per-query PredictMasked calls (enforced by TestPredictMaskedBatchMatches).

// MaskQuery is one masked-prediction request: a token sequence (including
// any [CLS]/[SEP]/[MASK] specials), the position of the mask to score, and
// the number of candidates wanted (TopK <= 0 means the full vocabulary).
type MaskQuery struct {
	Tokens  []int
	MaskPos int
	TopK    int
}

// blockT caches one block's projection weights transposed for MatMulTN.
type blockT struct {
	wq, wk, wv, wo *tensor.Mat // d×d (transposed in place of the originals)
	w1             *tensor.Mat // f×d = W1ᵀ
	w2             *tensor.Mat // d×f = W2ᵀ
}

// inferT is the per-model transposed-weight cache, built lazily on the first
// batched prediction and dropped whenever training touches the weights.
type inferT struct {
	blocks []*blockT
	headW  *tensor.Mat // d×d = HeadWᵀ
}

// inferWeights returns the transposed-weight cache, building it on first use.
func (m *Model) inferWeights() *inferT {
	m.inferMu.Lock()
	defer m.inferMu.Unlock()
	if m.infer == nil {
		t := &inferT{headW: tensor.Transpose(m.HeadW)}
		for _, b := range m.Blocks {
			t.blocks = append(t.blocks, &blockT{
				wq: tensor.Transpose(b.Wq),
				wk: tensor.Transpose(b.Wk),
				wv: tensor.Transpose(b.Wv),
				wo: tensor.Transpose(b.Wo),
				w1: tensor.Transpose(b.W1),
				w2: tensor.Transpose(b.W2),
			})
		}
		m.infer = t
	}
	return m.infer
}

// invalidateInfer drops the transposed-weight cache; Train calls it so a
// model trained further never serves stale weights.
func (m *Model) invalidateInfer() {
	m.inferMu.Lock()
	m.infer = nil
	m.inferMu.Unlock()
}

// PredictMaskedBatch answers B masked-prediction queries in one engine pass
// and returns one candidate list per query, in query order.  Results are
// element-wise equal to calling PredictMasked per query; wall-clock is
// substantially lower because same-length sequences share every projection
// and FFN matmul.  It is safe for concurrent use on a model that is no
// longer training.
func (m *Model) PredictMaskedBatch(queries []MaskQuery) ([][]Candidate, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	for qi, q := range queries {
		if err := m.checkTokens(q.Tokens); err != nil {
			return nil, fmt.Errorf("bert: batch query %d: %w", qi, err)
		}
		if q.MaskPos < 0 || q.MaskPos >= len(q.Tokens) {
			return nil, fmt.Errorf("bert: batch query %d: mask position %d out of range for sequence of length %d", qi, q.MaskPos, len(q.Tokens))
		}
	}
	tw := m.inferWeights()
	d := m.Cfg.Hidden

	// Group queries by sequence length: stacking requires uniform rows per
	// sequence, and padding would change attention results.  Iteration is in
	// first-seen order so the engine stays deterministic.
	groups := make(map[int][]int)
	var lengths []int
	for qi, q := range queries {
		n := len(q.Tokens)
		if _, ok := groups[n]; !ok {
			lengths = append(lengths, n)
		}
		groups[n] = append(groups[n], qi)
	}

	// Encode each group down to its mask rows; the MLM head then runs once
	// over every query's mask row regardless of group.
	hx := tensor.NewMat(len(queries), d)
	for _, n := range lengths {
		idxs := groups[n]
		enc := m.encodeStack(tw, queries, idxs, n)
		for bi, qi := range idxs {
			copy(hx.Row(qi), enc.Row(bi))
		}
	}

	th := tensor.NewMat(len(queries), d)
	tensor.MatMulTN(th, hx, tw.headW, m.HeadB.A)
	tensor.GELU(th.A, th.A)
	tensor.LayerNormInfer(th, th, m.HeadLNg.A, m.HeadLNb.A, lnEps)
	logits := tensor.NewMat(len(queries), m.Cfg.VocabSize)
	tensor.MatMulTN(logits, th, m.TokEmb, m.OutBias.A)

	out := make([][]Candidate, len(queries))
	for qi, q := range queries {
		row := logits.Row(qi)
		tensor.SoftmaxInPlace(row)
		out[qi] = topKCandidates(row, q.TopK)
	}
	return out, nil
}

// encodeStack runs the encoder over the queries selected by idxs (all of
// sequence length n) stacked into one [len(idxs)×n, d] activation matrix,
// and returns the final layer-norm output of each query's mask row,
// [len(idxs)×d] in idxs order.  Buffers are reused across blocks so the pass
// allocates O(batch) matrices rather than O(batch × layers).
func (m *Model) encodeStack(tw *inferT, queries []MaskQuery, idxs []int, n int) *tensor.Mat {
	B := len(idxs)
	N := B * n
	d, f := m.Cfg.Hidden, m.Cfg.FFN

	// Embeddings: token + position, layer-normed in place.
	x := tensor.NewMat(N, d)
	for bi, qi := range idxs {
		for i, tok := range queries[qi].Tokens {
			row := x.Row(bi*n + i)
			te := m.TokEmb.Row(tok)
			pe := m.PosEmb.Row(i)
			for j := 0; j < d; j++ {
				row[j] = te[j] + pe[j]
			}
		}
	}
	tensor.LayerNormInfer(x, x, m.EmbLNg.A, m.EmbLNb.A, lnEps)

	xn := tensor.NewMat(N, d)
	tmp := tensor.NewMat(N, d)
	q := tensor.NewMat(N, d)
	k := tensor.NewMat(N, d)
	v := tensor.NewMat(N, d)
	att := tensor.NewMat(N, d)
	pre := tensor.NewMat(N, f)

	last := len(m.Blocks) - 1
	for li, b := range m.Blocks[:last] {
		bt := tw.blocks[li]
		tensor.LayerNormInfer(xn, x, b.LN1g.A, b.LN1b.A, lnEps)
		tensor.MatMulTN(q, xn, bt.wq, b.Bq.A)
		tensor.MatMulTN(k, xn, bt.wk, b.Bk.A)
		tensor.MatMulTN(v, xn, bt.wv, b.Bv.A)
		m.attend(att, q, k, v, n)
		m.blockTail(b, bt, x, att, xn, tmp, pre)
	}

	// Last block, pruned to the mask rows: every row's keys and values, but
	// one query row per sequence from Q onwards.  Each kept row is the same
	// computation as in the full block, so results do not change.  The
	// B-row operands live in the leading rows of the N-row buffers; gathering
	// x in place is safe because row bi's source, bi·n+MaskPos, is never
	// before row bi, and later sources lie beyond it.
	b, bt := m.Blocks[last], tw.blocks[last]
	tensor.LayerNormInfer(xn, x, b.LN1g.A, b.LN1b.A, lnEps)
	tensor.MatMulTN(k, xn, bt.wk, b.Bk.A)
	tensor.MatMulTN(v, xn, bt.wv, b.Bv.A)
	xm, xnm := x.RowsView(0, B), tmp.RowsView(0, B)
	for bi, qi := range idxs {
		r := bi*n + queries[qi].MaskPos
		copy(xnm.Row(bi), xn.Row(r))
		copy(xm.Row(bi), x.Row(r))
	}
	qm, attm := q.RowsView(0, B), att.RowsView(0, B)
	tensor.MatMulTN(qm, xnm, bt.wq, b.Bq.A)
	m.attend(attm, qm, k, v, n)
	m.blockTail(b, bt, xm, attm, xn.RowsView(0, B), tmp.RowsView(0, B), pre.RowsView(0, B))
	tensor.LayerNormInfer(xm, xm, m.FinLNg.A, m.FinLNb.A, lnEps)
	return xm
}

// attend runs multi-head attention per sequence: sequence bi's query rows
// (q.R/B of them, B = k.R/n) attend over its n key and value rows and write
// the matching rows of att.  Row views keep any sequence from attending
// across a batch neighbor.  Sequences are independent, so large admission
// batches fan out across the tensor worker pool, each chunk on its own
// head-sized scratch — results are element-wise identical to the serial loop.
func (m *Model) attend(att, q, k, v *tensor.Mat, n int) {
	B := k.R / n
	qn := q.R / B
	d, heads := m.Cfg.Hidden, m.Cfg.Heads
	dh := d / heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	tensor.ParallelRows(B, 2*qn*n*d, func(blo, bhi int) {
		qh := tensor.NewMat(qn, dh)
		kh := tensor.NewMat(n, dh)
		vh := tensor.NewMat(n, dh)
		oh := tensor.NewMat(qn, dh)
		p := tensor.NewMat(qn, n)
		for bi := blo; bi < bhi; bi++ {
			qs := q.RowsView(bi*qn, (bi+1)*qn)
			ks := k.RowsView(bi*n, (bi+1)*n)
			vs := v.RowsView(bi*n, (bi+1)*n)
			as := att.RowsView(bi*qn, (bi+1)*qn)
			for h := 0; h < heads; h++ {
				copyHead(qh, qs, h, dh)
				copyHead(kh, ks, h, dh)
				copyHead(vh, vs, h, dh)
				tensor.MatMulTN(p, qh, kh, nil)
				p.Scale(scale)
				tensor.SoftmaxRows(p)
				tensor.MatMul(oh, p, vh)
				pasteHead(as, oh, h, dh)
			}
		}
	})
}

// blockTail finishes block b on the rows of x given their attention output:
// the Wo projection and residual, then LN2, the FFN and its residual, in
// place on x.  xn, tmp and pre are scratch with x's row count.
func (m *Model) blockTail(b *Block, bt *blockT, x, att, xn, tmp, pre *tensor.Mat) {
	tensor.MatMulTN(tmp, att, bt.wo, b.Bo.A)
	for i := range x.A {
		x.A[i] += tmp.A[i]
	}
	tensor.LayerNormInfer(xn, x, b.LN2g.A, b.LN2b.A, lnEps)
	tensor.MatMulTN(pre, xn, bt.w1, b.B1.A)
	tensor.GELU(pre.A, pre.A)
	tensor.MatMulTN(tmp, pre, bt.w2, b.B2.A)
	for i := range x.A {
		x.A[i] += tmp.A[i]
	}
}
