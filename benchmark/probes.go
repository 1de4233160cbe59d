package main

import (
	"math/rand"
	"runtime"
	"time"

	"kamel/internal/bert"
	"kamel/internal/constraints"
	"kamel/internal/core"
	"kamel/internal/geo"
	"kamel/internal/tensor"
	"kamel/internal/vocab"
)

// probeBudget is how long each probe loop runs.
const probeBudget = 120 * time.Millisecond

// timeLoop calls fn until the budget is spent and returns the mean time per
// call and the number of calls.  The loop is one span: a span per call would
// cost more than the sub-microsecond calls it measures.
func timeLoop(tr *tracer, name string, fn func()) (perCall time.Duration, calls int) {
	start := time.Now()
	for time.Since(start) < probeBudget {
		fn()
		calls++
	}
	end := time.Now()
	tr.add("probe."+name, -1, 0, start, end)
	return end.Sub(start) / time.Duration(calls), calls
}

// runProbes times the layers' public functions directly, at the shapes the
// trained repository gives them.  It runs before the workload, on an idle
// machine, and is the same for every workload.
func runProbes(tr *tracer, sys *core.System, chk *checker, trips []geo.Trajectory, layer map[string]float64) error {
	tok := sys.Tokenizer()
	rng := rand.New(rand.NewSource(1))

	// Reference gaps: the pool cut at the serving workloads' distance.
	type gap struct{ a, b geo.XY }
	var gaps []gap
	var points []geo.XY
	var tokenDist float64
	for _, trip := range trips {
		sp := trip.Sparsify(serveSparseM)
		for i, p := range sp.Points {
			xy := chk.proj.ToXY(p)
			points = append(points, xy)
			if i > 0 {
				prev := points[len(points)-2]
				gaps = append(gaps, gap{prev, xy})
				tokenDist += float64(tok.Distance(tok.Tokenize(prev), tok.Tokenize(xy)))
			}
		}
	}
	// [CLS] prev S … D next [SEP] with the gap half filled on average:
	// computed from the gaps' token distance, not observed inside the search.
	seqLen := 5 + int(tokenDist/float64(len(gaps))/2+0.5)
	cfg := bert.DefaultConfig(sys.SystemStats().DetokTokens + vocab.NumSpecial)
	if seqLen > cfg.MaxSeqLen {
		seqLen = cfg.MaxSeqLen
	}
	model, err := bert.New(cfg)
	if err != nil {
		return err
	}
	query := func() bert.MaskQuery {
		q := bert.MaskQuery{Tokens: make([]int, seqLen), MaskPos: seqLen / 2, TopK: 60}
		for i := range q.Tokens {
			q.Tokens[i] = vocab.NumSpecial + rng.Intn(cfg.VocabSize-vocab.NumSpecial)
		}
		return q
	}
	b1 := []bert.MaskQuery{query()}
	b16 := make([]bert.MaskQuery, 16)
	for i := range b16 {
		b16[i] = query()
	}
	predict := func(qs []bert.MaskQuery) func() {
		return func() {
			if _, perr := model.PredictMaskedBatch(qs); perr != nil {
				err = perr
			}
		}
	}
	predict(b16)() // builds the transposed-weight cache outside the timing
	per, _ := timeLoop(tr, "bert.b1", predict(b1))
	layer["bert.predict_ms_per_query_b1"] = per.Seconds() * 1e3
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	per, calls := timeLoop(tr, "bert.b16", predict(b16))
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	layer["bert.predict_ms_per_query_b16"] = per.Seconds() * 1e3 / 16
	layer["bert.allocs_per_query_b16"] = float64(m1.Mallocs-m0.Mallocs) / float64(calls*16)
	layer["bert.bytes_per_query_b16"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(calls*16)

	// The FFN up-projection of a 16-query batch: [16·L, d] · [f, d]ᵀ.
	n, k, f := 16*seqLen, cfg.Hidden, cfg.FFN
	a, bt, dst := tensor.NewMat(n, k), tensor.NewMat(f, k), tensor.NewMat(n, f)
	for i := range a.A {
		a.A[i] = rng.Float32()
	}
	for i := range bt.A {
		bt.A[i] = rng.Float32()
	}
	per, _ = timeLoop(tr, "tensor.matmul_tn", func() { tensor.MatMulTN(dst, a, bt, nil) })
	layer["tensor.matmul_tn_gflops"] = 2 * float64(n) * float64(k) * float64(f) / per.Seconds() / 1e9
	// Computed from the shapes (float32 operands read once, result written
	// once), not measured.
	layer["tensor.matmul_tn_mb_moved"] = 4 * float64(n*k+f*k+n*f) / 1e6
	g, b := make([]float32, k), make([]float32, k)
	for i := range g {
		g[i] = 1
	}
	per, _ = timeLoop(tr, "tensor.layernorm", func() { tensor.LayerNormInfer(a, a, g, b, 1e-5) })
	layer["tensor.layernorm_ns_per_row"] = float64(per.Nanoseconds()) / float64(n)

	// Constraints: 60 candidates (the search's TopK) around a real gap.
	ch := constraints.NewChecker(tok, sys.SystemStats().MaxSpeedMPS)
	ref := gaps[len(gaps)/2]
	seg := constraints.Segment{S: tok.Tokenize(ref.a), D: tok.Tokenize(ref.b), TimeDiff: ref.a.Dist(ref.b) / 10}
	cands := make([]constraints.Candidate, 0, 60)
	for _, c := range tok.Line(seg.S, seg.D) {
		for _, nb := range tok.Neighbors(c) {
			if len(cands) < 60 {
				cands = append(cands, constraints.Candidate{Cell: nb, Prob: 1.0 / 60})
			}
		}
	}
	per, _ = timeLoop(tr, "constraints.filter", func() { ch.Filter(cands, seg) })
	layer["constraints.filter_ns_per_cand"] = float64(per.Nanoseconds()) / float64(len(cands))

	per, _ = timeLoop(tr, "tokenizer.tokenize", func() {
		for _, p := range points {
			tok.Tokenize(p)
		}
	})
	layer["tokenizer.tokenize_ns_per_point"] = float64(per.Nanoseconds()) / float64(len(points))

	ix := sys.ServingIndex()
	per, _ = timeLoop(tr, "pyramid.lookup", func() {
		for _, g := range gaps {
			ix.LookupBest(geo.EmptyRect().ExtendXY(g.a).ExtendXY(g.b))
		}
	})
	layer["pyramid.lookup_ns_probe"] = float64(per.Nanoseconds()) / float64(len(gaps))
	return nil
}
