package eval

import (
	"sort"
	"time"

	"kamel/internal/core"
	"kamel/internal/geo"
	"kamel/internal/metrics"
	"kamel/internal/tokenizer"
	"kamel/internal/vocab"
)

// TokenizerABCell is one tokenizer's side of the A/B report: the token-space
// shape (vocabulary size and training-data factor over the training corpus —
// the very statistic Tokenization exists to raise, §1 challenge 2), the
// resulting model count, and serving accuracy/latency.
type TokenizerABCell struct {
	Tokenizer          string  `json:"tokenizer"`
	SpecHash           string  `json:"spec_hash"`
	VocabSize          int     `json:"vocab_size"`
	TrainingDataFactor float64 `json:"training_data_factor"`
	SplitCells         int     `json:"split_cells"`
	MergeCells         int     `json:"merge_cells"`
	SingleModels       int     `json:"single_models"`
	NeighborModels     int     `json:"neighbor_models"`
	Recall             float64 `json:"recall"`
	Precision          float64 `json:"precision"`
	FailRate           float64 `json:"fail_rate"`
	ImputeP50MS        float64 `json:"impute_p50_ms"`
}

// TokenizerABReport is the structured fixed-vs-adaptive comparison for one
// dataset, written by kamel-bench -tokenizer-ab alongside the tabular Rows.
type TokenizerABReport struct {
	Dataset     string          `json:"dataset"`
	SparsenessM float64         `json:"sparseness_m"`
	Fixed       TokenizerABCell `json:"fixed"`
	Adaptive    TokenizerABCell `json:"adaptive"`
}

// corpusVocabStats tokenizes the training corpus with one tokenizer and
// returns the distinct-token count and training-data factor, using the same
// consecutive-duplicate collapse the training pipeline applies.
func corpusVocabStats(tk tokenizer.Tokenizer, proj *geo.Projection, trajs []geo.Trajectory) (int, float64) {
	v := vocab.New()
	for _, tr := range trajs {
		var last tokenizer.Token
		first := true
		for _, p := range tr.Points {
			t := tk.Tokenize(proj.ToXY(p))
			if first || t != last {
				v.Add(t)
				last, first = t, false
			}
		}
	}
	return v.Size() - vocab.NumSpecial, v.TrainingDataFactor()
}

// RunTokenizerAB trains KAMEL twice on one dataset — fixed-grid versus
// density-adaptive tokenization, all else equal — and reports accuracy,
// token-space shape, model count, and median per-trajectory imputation
// latency for both.  The returned Rows carry the accuracy sweep for the
// text reporters; the report carries the full structured comparison at the
// first sweep point.
func (r *Runner) RunTokenizerAB(dataset string, sweep []float64) ([]Row, *TokenizerABReport, error) {
	if len(sweep) == 0 {
		sweep = []float64{1000, 2000}
	}
	sc, err := r.scenario(dataset)
	if err != nil {
		return nil, nil, err
	}
	delta := r.delta(dataset)
	tests := r.testSlice(sc)
	report := &TokenizerABReport{Dataset: dataset, SparsenessM: sweep[0]}
	var rows []Row
	for _, kind := range []string{core.TokenizerFixed, core.TokenizerAdaptive} {
		dir, err := r.workdir(dataset + "-tok-" + kind)
		if err != nil {
			return nil, nil, err
		}
		cfg := r.kamelConfig(dir, sc)
		cfg.Tokenizer = kind
		sys, err := core.NewWithProjection(cfg, sc.Proj)
		if err != nil {
			return nil, nil, err
		}
		r.logf("tokenizer-ab training %s tokenizer on %s", kind, dataset)
		if err := sys.Train(sc.Train); err != nil {
			return nil, nil, err
		}
		st := sys.SystemStats()
		cell := TokenizerABCell{
			Tokenizer:      kind,
			SpecHash:       st.TokenizerSpecHash,
			SplitCells:     st.SplitCells,
			MergeCells:     st.MergeCells,
			SingleModels:   st.SingleModels,
			NeighborModels: st.NeighborModels,
		}
		cell.VocabSize, cell.TrainingDataFactor = corpusVocabStats(sys.Tokenizer(), sc.Proj, sc.Train)
		for si, sparse := range sweep {
			var acc metrics.Accumulator
			var failSeg, totSeg int
			var durs []float64
			for _, truth := range tests {
				sparseTr := truth.Sparsify(sparse)
				t0 := time.Now()
				dense, ist, err := sys.Impute(sparseTr)
				if err != nil {
					sys.Close()
					return nil, nil, err
				}
				durs = append(durs, time.Since(t0).Seconds())
				failSeg += ist.Failures
				totSeg += ist.Segments
				acc.Add(metrics.Evaluate(sc.Proj, truth, dense, r.Opts.MaxGapM, delta))
			}
			failRate := 0.0
			if totSeg > 0 {
				failRate = float64(failSeg) / float64(totSeg)
			}
			rows = append(rows, Row{
				Experiment: "tokenizer-ab", Dataset: dataset, Method: kind,
				XLabel: "sparseness_m", X: sparse,
				Recall: acc.Recall(), Precision: acc.Precision(), FailRate: failRate,
			})
			if si == 0 {
				cell.Recall, cell.Precision, cell.FailRate = acc.Recall(), acc.Precision(), failRate
				sort.Float64s(durs)
				if len(durs) > 0 {
					cell.ImputeP50MS = durs[len(durs)/2] * 1000
				}
			}
			r.logf("tokenizer-ab %s %s sparse=%.0f recall=%.3f vocab=%d factor=%.1f",
				dataset, kind, sparse, acc.Recall(), cell.VocabSize, cell.TrainingDataFactor)
		}
		switch kind {
		case core.TokenizerFixed:
			report.Fixed = cell
		default:
			report.Adaptive = cell
		}
		sys.Close()
	}
	return rows, report, nil
}
