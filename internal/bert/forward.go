package bert

import (
	"math"

	"kamel/internal/tensor"
)

// blockCache stores the per-block activations the backward pass needs.
type blockCache struct {
	xIn   *tensor.Mat   // block input (n×d)
	xhat1 *tensor.Mat   // LN1 normalized pre-gain
	xn1   *tensor.Mat   // LN1 output
	q     *tensor.Mat   // n×d
	k     *tensor.Mat   // n×d
	v     *tensor.Mat   // n×d
	probs []*tensor.Mat // per-head attention probabilities (n×n)
	att   *tensor.Mat   // concatenated head outputs, pre-Wo (n×d)
	xMid  *tensor.Mat   // after the attention residual (n×d)
	xhat2 *tensor.Mat
	xn2   *tensor.Mat
	pre   *tensor.Mat // FFN pre-activation (n×f)
	h     *tensor.Mat // gelu(pre) (n×f)
	out   *tensor.Mat // block output (n×d), the next block's xIn
}

// cache stores the full activation trace of one sequence forward pass.
type cache struct {
	tokens  []int
	emb     *tensor.Mat // token+position embedding sum (n×d)
	embXhat *tensor.Mat
	embOut  *tensor.Mat // embedding LN output = input to block 0
	blocks  []*blockCache
	finIn   *tensor.Mat // output of the last block
	finXhat *tensor.Mat
	encOut  *tensor.Mat // final LN output (n×d)
}

// encode runs the encoder over one token sequence and returns the activation
// trace.  Token validity is the caller's responsibility (checkTokens).
func (m *Model) encode(tokens []int) *cache {
	n, d := len(tokens), m.Cfg.Hidden
	c := &cache{tokens: tokens}

	// Embeddings: token + position, then layer norm.
	c.emb = tensor.NewMat(n, d)
	for i, t := range tokens {
		row := c.emb.Row(i)
		te := m.TokEmb.Row(t)
		pe := m.PosEmb.Row(i)
		for j := 0; j < d; j++ {
			row[j] = te[j] + pe[j]
		}
	}
	c.embXhat = tensor.NewMat(n, d)
	c.embOut = tensor.NewMat(n, d)
	tensor.LayerNormForward(c.embOut, c.embXhat, c.emb, m.EmbLNg.A, m.EmbLNb.A, lnEps)

	x := c.embOut
	for _, b := range m.Blocks {
		bc := m.blockForward(b, x)
		c.blocks = append(c.blocks, bc)
		// Recompute the block output from the cache: xOut = xMid + F where
		// F = h·W2 + B2 was folded into xOut during blockForward; we keep
		// the output as the next block's xIn, stored transiently here.
		x = bc.out
	}

	c.finIn = x
	c.finXhat = tensor.NewMat(n, d)
	c.encOut = tensor.NewMat(n, d)
	tensor.LayerNormForward(c.encOut, c.finXhat, c.finIn, m.FinLNg.A, m.FinLNb.A, lnEps)
	return c
}

// out is the block output; stored on blockCache for chaining (not needed by
// the backward pass itself, which reconstructs gradients from the rest).
func (m *Model) blockForward(b *Block, x *tensor.Mat) *blockCache {
	n, d, f := x.R, m.Cfg.Hidden, m.Cfg.FFN
	heads := m.Cfg.Heads
	dh := d / heads
	scale := float32(1 / math.Sqrt(float64(dh)))

	bc := &blockCache{xIn: x}
	bc.xhat1 = tensor.NewMat(n, d)
	bc.xn1 = tensor.NewMat(n, d)
	tensor.LayerNormForward(bc.xn1, bc.xhat1, x, b.LN1g.A, b.LN1b.A, lnEps)

	bc.q = linear(bc.xn1, b.Wq, b.Bq)
	bc.k = linear(bc.xn1, b.Wk, b.Bk)
	bc.v = linear(bc.xn1, b.Wv, b.Bv)

	bc.att = tensor.NewMat(n, d)
	bc.probs = make([]*tensor.Mat, heads)
	qh := tensor.NewMat(n, dh)
	kh := tensor.NewMat(n, dh)
	vh := tensor.NewMat(n, dh)
	oh := tensor.NewMat(n, dh)
	for h := 0; h < heads; h++ {
		copyHead(qh, bc.q, h, dh)
		copyHead(kh, bc.k, h, dh)
		copyHead(vh, bc.v, h, dh)
		p := tensor.NewMat(n, n)
		tensor.MatMulTN(p, qh, kh, nil)
		p.Scale(scale)
		tensor.SoftmaxRows(p)
		bc.probs[h] = p
		tensor.MatMul(oh, p, vh)
		pasteHead(bc.att, oh, h, dh)
	}

	attOut := linear(bc.att, b.Wo, b.Bo)
	bc.xMid = tensor.NewMat(n, d)
	for i := range bc.xMid.A {
		bc.xMid.A[i] = x.A[i] + attOut.A[i]
	}

	bc.xhat2 = tensor.NewMat(n, d)
	bc.xn2 = tensor.NewMat(n, d)
	tensor.LayerNormForward(bc.xn2, bc.xhat2, bc.xMid, b.LN2g.A, b.LN2b.A, lnEps)

	bc.pre = linear(bc.xn2, b.W1, b.B1)
	bc.h = tensor.NewMat(n, f)
	tensor.GELU(bc.h.A, bc.pre.A)
	ffnOut := linear(bc.h, b.W2, b.B2)

	bc.out = tensor.NewMat(n, d)
	for i := range bc.out.A {
		bc.out.A[i] = bc.xMid.A[i] + ffnOut.A[i]
	}
	return bc
}

// linear computes x·W + b (bias broadcast over rows).
func linear(x, w, bias *tensor.Mat) *tensor.Mat {
	out := tensor.NewMat(x.R, w.C)
	tensor.MatMul(out, x, w)
	for i := 0; i < out.R; i++ {
		row := out.Row(i)
		for j, bv := range bias.A {
			row[j] += bv
		}
	}
	return out
}

// copyHead extracts head h's column slice of src (n×d) into dst (n×dh).
func copyHead(dst, src *tensor.Mat, h, dh int) {
	off := h * dh
	for i := 0; i < src.R; i++ {
		copy(dst.Row(i), src.Row(i)[off:off+dh])
	}
}

// pasteHead writes dst (n×dh) into head h's column slice of out (n×d).
func pasteHead(out, src *tensor.Mat, h, dh int) {
	off := h * dh
	for i := 0; i < src.R; i++ {
		copy(out.Row(i)[off:off+dh], src.Row(i))
	}
}

// headForward runs the MLM head at the given sequence positions, returning
// the logits (len(positions)×V) and the intermediates needed for backward.
func (m *Model) headForward(c *cache, positions []int) (logits, x, t, g, ghat, hn *tensor.Mat) {
	d, v := m.Cfg.Hidden, m.Cfg.VocabSize
	mrows := len(positions)
	x = tensor.NewMat(mrows, d)
	for i, p := range positions {
		copy(x.Row(i), c.encOut.Row(p))
	}
	t = linear(x, m.HeadW, m.HeadB)
	g = tensor.NewMat(mrows, d)
	tensor.GELU(g.A, t.A)
	ghat = tensor.NewMat(mrows, d)
	hn = tensor.NewMat(mrows, d)
	tensor.LayerNormForward(hn, ghat, g, m.HeadLNg.A, m.HeadLNb.A, lnEps)
	logits = tensor.NewMat(mrows, v)
	tensor.MatMulTN(logits, hn, m.TokEmb, m.OutBias.A)
	return logits, x, t, g, ghat, hn
}
