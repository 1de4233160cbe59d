package core

import (
	"context"
	"testing"

	"kamel/internal/geo"
	"kamel/internal/impute"
	"kamel/internal/roadnet"
	"kamel/internal/trajgen"
)

// benchFixture trains one global system for the predictor benchmarks.
func benchFixture(b *testing.B) (*System, []geo.Trajectory) {
	b.Helper()
	cityCfg := roadnet.DefaultCityConfig()
	cityCfg.Width, cityCfg.Height = 1500, 1500
	net := roadnet.GenerateCity(cityCfg)
	proj := geo.NewProjection(41.15, -8.61)
	gen := trajgen.DefaultConfig(50)
	trajs, err := trajgen.Generate(net, proj, gen)
	if err != nil {
		b.Fatal(err)
	}
	train, test := trajgen.SplitTrainTest(trajs, 0.8, 1)

	cfg := DefaultConfig(b.TempDir())
	cfg.DisablePartitioning = true
	cfg.Hidden, cfg.FFN = 48, 192
	cfg.Train.Steps = 250
	sys, err := NewWithProjection(cfg, proj)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sys.Close() })
	if err := sys.Train(train); err != nil {
		b.Fatal(err)
	}
	return sys, test
}

// gapRequests extracts imputation requests from sparsified test trajectories.
func gapRequests(sys *System, tests []geo.Trajectory, sparse float64) []impute.Request {
	var out []impute.Request
	for _, truth := range tests {
		sp := truth.Sparsify(sparse)
		for i := 0; i+1 < len(sp.Points); i++ {
			a := sys.proj.ToXY(sp.Points[i])
			bxy := sys.proj.ToXY(sp.Points[i+1])
			out = append(out, impute.Request{
				S:        sys.tok.Tokenize(a),
				D:        sys.tok.Tokenize(bxy),
				TimeDiff: sp.Points[i+1].T - sp.Points[i].T,
			})
		}
	}
	return out
}

// sparseTests returns the sparsified end-to-end imputation inputs of
// BenchmarkImpute.
func sparseTests(tests []geo.Trajectory, sparse float64) []geo.Trajectory {
	out := make([]geo.Trajectory, len(tests))
	for i, tr := range tests {
		out[i] = tr.Sparsify(sparse)
	}
	return out
}

// BenchmarkImpute measures the full serving path — ImputeContext with every
// stage feeding its histogram.
func BenchmarkImpute(b *testing.B) {
	sys, tests := benchFixture(b)
	in := sparseTests(tests[:4], 800)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range in {
			if _, _, err := sys.Impute(tr); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPredictorBERT measures beam imputation driven by the trained
// transformer, called directly rather than through ImputeContext.
func BenchmarkPredictorBERT(b *testing.B) {
	sys, tests := benchFixture(b)
	reqs := gapRequests(sys, tests[:4], 800)
	cfg := impute.Config{
		Tokenizer: sys.tok, Checker: sys.checker,
		MaxGapMeters: sys.cfg.MaxGapM, MaxCalls: 200, TopK: 40, Beam: 4, Alpha: 1,
	}
	p := bundlePredictor{b: sys.global, adm: sys.adm}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, req := range reqs {
			if _, err := impute.Beam(context.Background(), p, cfg, req); err != nil {
				b.Fatal(err)
			}
		}
	}
}
