// Package ngram implements a count-based bidirectional Markov predictor
// over grid tokens.  It answers the same query as KAMEL's BERT — "which
// token fills the hole between this left and right context?" — from raw
// transition counts instead of a learned model.  The package serves two
// purposes called out in DESIGN.md: it isolates pipeline tests from training
// noise (a deterministic, instantly-"trained" Predictor), and it quantifies
// what the transformer buys over plain statistics
// (BenchmarkPredictorBertVsNGram).
package ngram

import (
	"sort"

	"kamel/internal/constraints"
	"kamel/internal/grid"
)

// Model holds bidirectional bigram counts: how often token b followed token
// a, and the unigram counts used for backoff.
type Model struct {
	next    map[grid.Cell]map[grid.Cell]float64 // a -> b -> count
	prev    map[grid.Cell]map[grid.Cell]float64 // b -> a -> count
	unigram map[grid.Cell]float64
	total   float64
}

// New returns an empty model.
func New() *Model {
	return &Model{
		next:    make(map[grid.Cell]map[grid.Cell]float64),
		prev:    make(map[grid.Cell]map[grid.Cell]float64),
		unigram: make(map[grid.Cell]float64),
	}
}

// Train accumulates transition counts from token sequences (consecutive
// duplicates should already be collapsed, as for BERT).
func (m *Model) Train(sequences [][]grid.Cell) {
	for _, seq := range sequences {
		for i, c := range seq {
			m.unigram[c]++
			m.total++
			if i+1 < len(seq) {
				addCount(m.next, c, seq[i+1])
				addCount(m.prev, seq[i+1], c)
			}
		}
	}
}

func addCount(table map[grid.Cell]map[grid.Cell]float64, k, v grid.Cell) {
	inner, ok := table[k]
	if !ok {
		inner = make(map[grid.Cell]float64)
		table[k] = inner
	}
	inner[v]++
}

// Vocab returns the number of distinct tokens seen.
func (m *Model) Vocab() int { return len(m.unigram) }

// Predict has the impute.PredictFunc signature: candidates for the token
// between segment[gapPos] and segment[gapPos+1], scored by the product of the
// forward probability P(t|left) and the backward probability P(t|right),
// each backed off to the unigram distribution with a small weight.
func (m *Model) Predict(segment []grid.Cell, gapPos int, topK int) ([]constraints.Candidate, error) {
	left := segment[gapPos]
	right := segment[gapPos+1]

	scores := make(map[grid.Cell]float64)
	fwd := m.next[left]
	bwd := m.prev[right]
	var fwdTotal, bwdTotal float64
	for _, c := range fwd {
		fwdTotal += c
	}
	for _, c := range bwd {
		bwdTotal += c
	}
	pFwd := func(t grid.Cell) float64 {
		const lambda = 0.9
		var p float64
		if fwdTotal > 0 {
			p = lambda * fwd[t] / fwdTotal
		}
		if m.total > 0 {
			p += (1 - lambda) * m.unigram[t] / m.total
		}
		return p
	}
	pBwd := func(t grid.Cell) float64 {
		const lambda = 0.9
		var p float64
		if bwdTotal > 0 {
			p = lambda * bwd[t] / bwdTotal
		}
		if m.total > 0 {
			p += (1 - lambda) * m.unigram[t] / m.total
		}
		return p
	}
	for t := range fwd {
		scores[t] = pFwd(t) * pBwd(t)
	}
	for t := range bwd {
		if _, seen := scores[t]; !seen {
			scores[t] = pFwd(t) * pBwd(t)
		}
	}

	out := make([]constraints.Candidate, 0, len(scores))
	var norm float64
	for t, s := range scores {
		if s > 0 {
			out = append(out, constraints.Candidate{Cell: t, Prob: s})
			norm += s
		}
	}
	if norm > 0 {
		for i := range out {
			out[i].Prob /= norm
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prob > out[j].Prob })
	if topK > 0 && len(out) > topK {
		out = out[:topK]
	}
	return out, nil
}
