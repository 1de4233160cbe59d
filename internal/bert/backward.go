package bert

import (
	"math"

	"kamel/internal/tensor"
)

// grads indexes a Params-ordered gradient holder by the same names as the
// model, so the backward code reads like the math.
type grads struct {
	mats []*tensor.Mat
	ps   []*tensor.Mat // Params(), cached once per backward pass
}

func (g *grads) of(p *tensor.Mat) *tensor.Mat {
	// Params order is fixed; find by identity.  The slice is short (tens of
	// entries), so a linear scan is cheaper than a map.
	for i, q := range g.ps {
		if q == p {
			return g.mats[i]
		}
	}
	panic("bert: gradient requested for unknown parameter")
}

// lossAndBackward computes the mean masked cross-entropy loss of one sequence
// and accumulates parameter gradients into gm (Params order).  positions are
// the masked indices; targets the true token IDs at those positions.
// It returns the loss.
func (m *Model) lossAndBackward(c *cache, positions, targets []int, gm []*tensor.Mat) float64 {
	g := &grads{mats: gm, ps: m.Params()}
	n, d, v := len(c.tokens), m.Cfg.Hidden, m.Cfg.VocabSize
	mrows := len(positions)
	if mrows == 0 {
		return 0
	}

	logits, hx, ht, hg, ghat, hn := m.headForward(c, positions)

	// Cross-entropy + softmax backward.  dlogits = (softmax - onehot)/mrows.
	var loss float64
	dlogits := tensor.NewMat(mrows, v)
	for i := 0; i < mrows; i++ {
		row := logits.Row(i)
		lse := tensor.LogSumExp(row)
		loss += lse - float64(row[targets[i]])
		drow := dlogits.Row(i)
		copy(drow, row)
		tensor.SoftmaxInPlace(drow)
		drow[targets[i]] -= 1
		for j := range drow {
			drow[j] /= float32(mrows)
		}
	}
	loss /= float64(mrows)

	// Output projection (tied to TokEmb): logits = hn·TokEmbᵀ + OutBias, so
	// dhn = dlogits·TokEmb and dTokEmb += dlogitsᵀ·hn.
	dhn := tensor.NewMat(mrows, d)
	tensor.MatMul(dhn, dlogits, m.TokEmb)
	addMatMulAT(g.of(m.TokEmb), dlogits, hn)

	dOutBias := g.of(m.OutBias)
	for i := 0; i < mrows; i++ {
		row := dlogits.Row(i)
		for j := range row {
			dOutBias.A[j] += row[j]
		}
	}

	// Head layer norm backward.
	dg := tensor.NewMat(mrows, d)
	tensor.LayerNormBackward(dg, dhn, ghat, hg, m.HeadLNg.A, g.of(m.HeadLNg).A, g.of(m.HeadLNb).A, lnEps)

	// Head GELU backward.
	dt := tensor.NewMat(mrows, d)
	tensor.GELUBackward(dt.A, dg.A, ht.A)

	// Head transform backward: t = x·HeadW + HeadB.
	dx := tensor.NewMat(mrows, d)
	tensor.MatMulTN(dx, dt, m.HeadW, nil)
	addMatMulAT(g.of(m.HeadW), hx, dt)
	addColSum(g.of(m.HeadB), dt)

	// Scatter into the encoder-output gradient.
	dEnc := tensor.NewMat(n, d)
	for i, p := range positions {
		dst := dEnc.Row(p)
		src := dx.Row(i)
		for j := range dst {
			dst[j] += src[j]
		}
	}

	// Final layer norm backward.
	dFinIn := tensor.NewMat(n, d)
	tensor.LayerNormBackward(dFinIn, dEnc, c.finXhat, c.finIn, m.FinLNg.A, g.of(m.FinLNg).A, g.of(m.FinLNb).A, lnEps)

	// Blocks in reverse.
	dOut := dFinIn
	for i := len(m.Blocks) - 1; i >= 0; i-- {
		dOut = m.blockBackward(m.Blocks[i], c.blocks[i], dOut, g)
	}

	// Embedding layer norm backward.
	dEmb := tensor.NewMat(n, d)
	tensor.LayerNormBackward(dEmb, dOut, c.embXhat, c.emb, m.EmbLNg.A, g.of(m.EmbLNg).A, g.of(m.EmbLNb).A, lnEps)

	// Scatter into token and position embedding gradients.
	dTok := g.of(m.TokEmb)
	dPos := g.of(m.PosEmb)
	for i, tok := range c.tokens {
		src := dEmb.Row(i)
		tr := dTok.Row(tok)
		pr := dPos.Row(i)
		for j := range src {
			tr[j] += src[j]
			pr[j] += src[j]
		}
	}
	return loss
}

// blockBackward backpropagates through one block, accumulating parameter
// gradients and returning the gradient w.r.t. the block input.
func (m *Model) blockBackward(b *Block, bc *blockCache, dOut *tensor.Mat, g *grads) *tensor.Mat {
	n, d, f := bc.xIn.R, m.Cfg.Hidden, m.Cfg.FFN
	heads := m.Cfg.Heads
	dh := d / heads
	scale := float32(1 / math.Sqrt(float64(dh)))

	// FFN residual: out = xMid + (gelu(LN2(xMid)·W1+B1)·W2+B2).
	dF := dOut // gradient of the FFN branch output
	dH := tensor.NewMat(n, f)
	tensor.MatMulTN(dH, dF, b.W2, nil)
	addMatMulAT(g.of(b.W2), bc.h, dF)
	addColSum(g.of(b.B2), dF)

	dPre := tensor.NewMat(n, f)
	tensor.GELUBackward(dPre.A, dH.A, bc.pre.A)

	dXn2 := tensor.NewMat(n, d)
	tensor.MatMulTN(dXn2, dPre, b.W1, nil)
	addMatMulAT(g.of(b.W1), bc.xn2, dPre)
	addColSum(g.of(b.B1), dPre)

	dXMid := tensor.NewMat(n, d)
	tensor.LayerNormBackward(dXMid, dXn2, bc.xhat2, bc.xMid, b.LN2g.A, g.of(b.LN2g).A, g.of(b.LN2b).A, lnEps)
	dXMid.Add(dOut) // residual connection

	// Attention residual: xMid = xIn + (att·Wo + Bo).
	dA := dXMid
	dAtt := tensor.NewMat(n, d)
	tensor.MatMulTN(dAtt, dA, b.Wo, nil)
	addMatMulAT(g.of(b.Wo), bc.att, dA)
	addColSum(g.of(b.Bo), dA)

	dQ := tensor.NewMat(n, d)
	dK := tensor.NewMat(n, d)
	dV := tensor.NewMat(n, d)
	qh := tensor.NewMat(n, dh)
	kh := tensor.NewMat(n, dh)
	vh := tensor.NewMat(n, dh)
	dOh := tensor.NewMat(n, dh)
	dP := tensor.NewMat(n, n)
	dS := tensor.NewMat(n, n)
	dQh := tensor.NewMat(n, dh)
	dKh := tensor.NewMat(n, dh)
	dVh := tensor.NewMat(n, dh)
	for h := 0; h < heads; h++ {
		copyHead(qh, bc.q, h, dh)
		copyHead(kh, bc.k, h, dh)
		copyHead(vh, bc.v, h, dh)
		copyHead(dOh, dAtt, h, dh)
		p := bc.probs[h]

		// dP = dOh·Vhᵀ ; dVh = Pᵀ·dOh.
		tensor.MatMulTN(dP, dOh, vh, nil)
		tensor.MatMulAT(dVh, p, dOh)

		// Softmax backward: dS = P ⊙ (dP − rowsum(dP⊙P)).
		for i := 0; i < n; i++ {
			pi := p.Row(i)
			dpi := dP.Row(i)
			var dot float32
			for j := range pi {
				dot += dpi[j] * pi[j]
			}
			dsi := dS.Row(i)
			for j := range pi {
				dsi[j] = pi[j] * (dpi[j] - dot)
			}
		}
		dS.Scale(scale) // the 1/sqrt(dh) applied before softmax

		// dQh = dS·Kh ; dKh = dSᵀ·Qh.
		tensor.MatMul(dQh, dS, kh)
		tensor.MatMulAT(dKh, dS, qh)

		pasteHead(dQ, dQh, h, dh)
		pasteHead(dK, dKh, h, dh)
		pasteHead(dV, dVh, h, dh)
	}

	// Projections: q = xn1·Wq + Bq, etc.
	dXn1 := tensor.NewMat(n, d)
	tmp := tensor.NewMat(n, d)
	tensor.MatMulTN(dXn1, dQ, b.Wq, nil)
	tensor.MatMulTN(tmp, dK, b.Wk, nil)
	dXn1.Add(tmp)
	tensor.MatMulTN(tmp, dV, b.Wv, nil)
	dXn1.Add(tmp)
	addMatMulAT(g.of(b.Wq), bc.xn1, dQ)
	addMatMulAT(g.of(b.Wk), bc.xn1, dK)
	addMatMulAT(g.of(b.Wv), bc.xn1, dV)
	addColSum(g.of(b.Bq), dQ)
	addColSum(g.of(b.Bk), dK)
	addColSum(g.of(b.Bv), dV)

	dXIn := tensor.NewMat(n, d)
	tensor.LayerNormBackward(dXIn, dXn1, bc.xhat1, bc.xIn, b.LN1g.A, g.of(b.LN1g).A, g.of(b.LN1b).A, lnEps)
	dXIn.Add(dXMid) // residual connection
	return dXIn
}

// addMatMulAT accumulates aᵀ·b into dst.
func addMatMulAT(dst, a, b *tensor.Mat) {
	tmp := tensor.NewMat(dst.R, dst.C)
	tensor.MatMulAT(tmp, a, b)
	dst.Add(tmp)
}

// addColSum accumulates the column sums of src into the 1×C matrix dst.
func addColSum(dst, src *tensor.Mat) {
	for i := 0; i < src.R; i++ {
		row := src.Row(i)
		for j := range row {
			dst.A[j] += row[j]
		}
	}
}
