// Package impute implements KAMEL's Multipoint Imputation module (paper §6):
// filling a trajectory gap between two tokens with a *sequence* of tokens,
// which BERT alone — designed to predict one missing word — cannot do.  Two
// strategies are provided: iterative BERT calling (Algorithm 1), the greedy
// approach, and bidirectional beam search (Algorithm 2), which tracks the B
// most probable partial segments across all gaps and normalizes sequence
// probabilities by length (P × |S|^α) so longer imputations are not unfairly
// penalized.
package impute

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"kamel/internal/constraints"
	"kamel/internal/grid"
	"kamel/internal/tokenizer"
)

// Candidate is one predicted gap filler.
type Candidate = constraints.Candidate

// Query is one prediction request: a token is to be inserted between
// Segment[GapPos] and Segment[GapPos+1], and up to TopK candidates are wanted.
type Query struct {
	Segment []grid.Cell
	GapPos  int
	TopK    int
}

// Predictor abstracts the BERT call of Figure 1.  The paper's algorithms are
// stated one call at a time; here every iteration first collects all the
// predictions it is about to need — Algorithm 2's whole beam frontier,
// Algorithm 1's every open gap — and asks for them in one blocking Predict.
// Results are per query, in query order, and must be what one-query calls
// would return: batching is a throughput device, never a semantic one.
// KAMEL's core answers through its cross-request admission batcher (request
// priority and deadline ride on ctx); baselines and tests wrap a per-query
// function in PredictFunc.
type Predictor interface {
	Predict(ctx context.Context, queries []Query) ([][]Candidate, error)
}

// PredictFunc adapts a per-query prediction function (a synthetic test
// predictor) to Predictor by answering the queries in a loop.
type PredictFunc func(segment []grid.Cell, gapPos, topK int) ([]Candidate, error)

// Predict implements Predictor.
func (f PredictFunc) Predict(ctx context.Context, queries []Query) ([][]Candidate, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	out := make([][]Candidate, len(queries))
	for i, q := range queries {
		cands, err := f(q.Segment, q.GapPos, q.TopK)
		if err != nil {
			return nil, err
		}
		out[i] = cands
	}
	return out, nil
}

// Config parameterizes both imputation algorithms.
type Config struct {
	Tokenizer    tokenizer.Tokenizer
	Checker      *constraints.Checker
	MaxGapMeters float64 // max_gap: adjacent output tokens must be closer than this
	MaxCalls     int     // hard budget of Predictor calls per segment (paper §6)
	TopK         int     // candidates requested per call
	Beam         int     // beam width B (Algorithm 2)
	Alpha        float64 // length-normalization strength α in [0,1]

	// Observe, when non-nil, receives the wall time of each internal stage
	// of a search: "impute.predict" for every batched predictor call and
	// "impute.constraints" for every round of candidate validation (filter,
	// cycle, and path-length checks).  The core pipeline wires this to the
	// observability layer (internal/obs); when nil the algorithms take no
	// timestamps at all, so un-observed searches pay nothing.
	Observe func(stage string, d time.Duration)
}

// DefaultConfig returns the paper's defaults: max_gap 100 m, beam 10, α=1.
func DefaultConfig(tk tokenizer.Tokenizer, ch *constraints.Checker) Config {
	return Config{
		Tokenizer:    tk,
		Checker:      ch,
		MaxGapMeters: 100,
		MaxCalls:     300,
		TopK:         20,
		Beam:         10,
		Alpha:        1,
	}
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.Tokenizer == nil:
		return fmt.Errorf("impute: nil tokenizer")
	case c.Checker == nil:
		return fmt.Errorf("impute: nil checker")
	case c.MaxGapMeters <= 0:
		return fmt.Errorf("impute: MaxGapMeters must be positive")
	case c.MaxCalls <= 0:
		return fmt.Errorf("impute: MaxCalls must be positive")
	case c.TopK <= 0:
		return fmt.Errorf("impute: TopK must be positive")
	case c.Beam <= 0:
		return fmt.Errorf("impute: Beam must be positive")
	case c.Alpha < 0 || c.Alpha > 1:
		return fmt.Errorf("impute: Alpha %f outside [0,1]", c.Alpha)
	}
	return nil
}

// Request describes one gap to impute: the segment end tokens, optional
// context tokens outside the gap, and the end-to-end time difference.
type Request struct {
	S, D     grid.Cell
	Prev     *grid.Cell
	Next     *grid.Cell
	TimeDiff float64
}

func (r Request) segment() constraints.Segment {
	return constraints.Segment{S: r.S, D: r.D, Prev: r.Prev, Next: r.Next, TimeDiff: r.TimeDiff}
}

// Result is a completed imputation.
type Result struct {
	Tokens []grid.Cell // S ... D inclusive
	Prob   float64     // normalized sequence probability (1 for trivial/failed)
	Calls  int         // Predictor calls consumed
	Failed bool        // true when the algorithm fell back to a straight line
	Reason string      // how the run ended: "ok", "budget", "dead-end"
}

// effectiveMaxGap clamps the configured meter threshold to the tokenizer's
// neighbor step: two adjacent tokens can never be closer than StepMeters, so
// a smaller threshold would make every gap unfillable (the paper's Figure 6
// measures max_gap in token steps for the same reason).
func (c Config) effectiveMaxGap() float64 {
	step := c.Tokenizer.StepMeters() * 1.001
	if c.MaxGapMeters > step {
		return c.MaxGapMeters
	}
	return step
}

// findFirstGap returns the first index i such that tokens i and i+1 are more
// than maxGap apart, or -1 when no gap remains (Algorithm 1's FindFirstGap).
func findFirstGap(tk tokenizer.Tokenizer, tokens []grid.Cell, maxGap float64) int {
	for i := 0; i+1 < len(tokens); i++ {
		if tokenizer.CentroidDistance(tk, tokens[i], tokens[i+1]) > maxGap {
			return i
		}
	}
	return -1
}

// findGaps returns every gap index (Algorithm 2's FindGaps).
func findGaps(tk tokenizer.Tokenizer, tokens []grid.Cell, maxGap float64) []int {
	var out []int
	for i := 0; i+1 < len(tokens); i++ {
		if tokenizer.CentroidDistance(tk, tokens[i], tokens[i+1]) > maxGap {
			out = append(out, i)
		}
	}
	return out
}

// lineFallback imputes the segment with a straight line of tokens — the
// failure behaviour the paper mandates when the call budget is exhausted.
func lineFallback(cfg Config, req Request, reason string) Result {
	return Result{
		Tokens: cfg.Tokenizer.Line(req.S, req.D),
		Prob:   0,
		Failed: true,
		Reason: reason,
	}
}

// ctxErr wraps a context error for propagation through the impute layer.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("impute: %w", err)
	}
	return nil
}

// Stage names reported through Config.Observe.
const (
	StagePredict     = "impute.predict"     // batched predictor (BERT) calls
	StageConstraints = "impute.constraints" // candidate validation per round
)

// predictTimed asks the predictor for one batch of queries, reporting the
// wall time (queue wait + engine pass, for core's predictor) to the configured
// observer.  With no observer it skips the clock reads.
func predictTimed(ctx context.Context, p Predictor, cfg Config, queries []Query) ([][]Candidate, error) {
	if cfg.Observe == nil {
		return p.Predict(ctx, queries)
	}
	t0 := time.Now()
	out, err := p.Predict(ctx, queries)
	cfg.Observe(StagePredict, time.Since(t0))
	return out, err
}

// Iterative implements Algorithm 1, the greedy approach: each round finds
// every gap wider than max_gap, asks the predictor for all of them in one
// batch, and inserts the most probable valid candidate into each (right to
// left, so earlier gap indices stay valid).  A round that inserts nothing is
// a dead end.  The call budget counts queries, not batches, so it matches the
// sequential algorithm's accounting.  The context is checked between
// predictor calls, so a cancelled request abandons the search without
// spending the rest of its budget.
func Iterative(ctx context.Context, p Predictor, cfg Config, req Request) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if req.S == req.D {
		return Result{Tokens: []grid.Cell{req.S}, Prob: 1}, nil
	}
	seg := []grid.Cell{req.S, req.D}
	sc := req.segment()
	maxGap := cfg.effectiveMaxGap()
	maxPath := cfg.Checker.MaxPathMeters(sc)
	calls := 0
	prob := 1.0

	for {
		gaps := findGaps(cfg.Tokenizer, seg, maxGap)
		if len(gaps) == 0 {
			return Result{Tokens: seg, Prob: normalize(prob, len(seg)-2, cfg.Alpha), Calls: calls, Reason: "ok"}, nil
		}
		if err := ctxErr(ctx); err != nil {
			return Result{}, err
		}
		if calls+len(gaps) > cfg.MaxCalls {
			// The sequential algorithm would burn the remaining budget on a
			// prefix of these gaps and then fail to a line anyway; skip
			// straight to the fallback with the budget marked spent.
			r := lineFallback(cfg, req, "budget")
			r.Calls = cfg.MaxCalls
			return r, nil
		}
		queries := make([]Query, len(gaps))
		for i, gap := range gaps {
			queries[i] = Query{Segment: seg, GapPos: gap, TopK: cfg.TopK}
		}
		results, err := predictTimed(ctx, p, cfg, queries)
		if err != nil {
			return Result{}, fmt.Errorf("impute: predictor: %w", err)
		}
		calls += len(gaps)

		// Insert right to left: an insertion at gap g shifts only indices
		// above g, so earlier gaps in the same round stay addressable.
		var checkStart time.Time
		if cfg.Observe != nil {
			checkStart = time.Now()
		}
		inserted := false
		for gi := len(gaps) - 1; gi >= 0; gi-- {
			gap := gaps[gi]
			cands := cfg.Checker.Filter(results[gi], sc)
			for _, cand := range cands {
				if cand.Cell == seg[gap] || cand.Cell == seg[gap+1] {
					continue // trivial cycle with a gap endpoint (§5.2, x=1)
				}
				next := insertAt(seg, gap+1, cand.Cell)
				if cfg.Checker.HasCycle(next[:gap+2]) {
					continue // §5.2: reject outcomes that close a cycle
				}
				if pathLen(cfg.Tokenizer, next) > maxPath {
					continue // §5.1: would exceed the physically drivable length
				}
				seg = next
				prob *= cand.Prob
				inserted = true
				break
			}
		}
		if cfg.Observe != nil {
			cfg.Observe(StageConstraints, time.Since(checkStart))
		}
		if !inserted {
			r := lineFallback(cfg, req, "dead-end")
			r.Calls = calls
			return r, nil
		}
	}
}

// pathLen returns the summed centroid distance along a token sequence.
func pathLen(tk tokenizer.Tokenizer, tokens []grid.Cell) float64 {
	var sum float64
	for i := 0; i+1 < len(tokens); i++ {
		sum += tokenizer.CentroidDistance(tk, tokens[i], tokens[i+1])
	}
	return sum
}

// insertAt returns a copy of tokens with c inserted at index i.
func insertAt(tokens []grid.Cell, i int, c grid.Cell) []grid.Cell {
	out := make([]grid.Cell, 0, len(tokens)+1)
	out = append(out, tokens[:i]...)
	out = append(out, c)
	out = append(out, tokens[i:]...)
	return out
}

// normalize applies the paper's length normalization P × |S|^α, where |S| is
// the number of imputed tokens.
func normalize(prob float64, imputed int, alpha float64) float64 {
	if imputed <= 0 {
		return prob
	}
	return prob * math.Pow(float64(imputed), alpha)
}

// segKey renders a token sequence as a map key for deduplication.
func segKey(tokens []grid.Cell) string {
	b := make([]byte, 0, len(tokens)*8)
	for _, c := range tokens {
		v := uint64(c)
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	return string(b)
}

// beamSeg is one partial imputation tracked by the beam.
type beamSeg struct {
	tokens []grid.Cell
	prob   float64 // raw product of token probabilities
}

// Beam implements Algorithm 2: bidirectional beam search over partial
// segments.  Each iteration gathers the entire frontier — every remaining gap
// of every beam segment — into one Predict call, expands each with its top-B
// valid candidates, deduplicates, keeps the best B new segments, concludes
// the gap-free ones into the answer set with normalized scores, and prunes
// anything scoring below the best concluded answer.  The context is checked
// between predictor calls, like Iterative.
func Beam(ctx context.Context, p Predictor, cfg Config, req Request) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if req.S == req.D {
		return Result{Tokens: []grid.Cell{req.S}, Prob: 1}, nil
	}
	sc := req.segment()
	maxGap := cfg.effectiveMaxGap()
	maxPath := cfg.Checker.MaxPathMeters(sc)
	calls := 0

	start := beamSeg{tokens: []grid.Cell{req.S, req.D}, prob: 1}
	if findFirstGap(cfg.Tokenizer, start.tokens, maxGap) < 0 {
		return Result{Tokens: start.tokens, Prob: 1}, nil
	}

	type answer struct {
		tokens []grid.Cell
		score  float64
	}
	var best *answer
	probLimit := 0.0 // lower bound on normalized score, per the §6.2 example

	live := []beamSeg{start}
	for len(live) > 0 {
		// Collect the whole frontier: one query per (segment, gap) pair.
		type expansion struct {
			seg beamSeg
			gap int
		}
		var frontier []expansion
		for _, bs := range live {
			for _, gap := range findGaps(cfg.Tokenizer, bs.tokens, maxGap) {
				frontier = append(frontier, expansion{seg: bs, gap: gap})
			}
		}
		if err := ctxErr(ctx); err != nil {
			return Result{}, err
		}
		if calls+len(frontier) > cfg.MaxCalls {
			// The sequential algorithm spends the remaining budget on a prefix
			// of the frontier and then discards that iteration's partial
			// expansions, so the batched path can skip the work entirely:
			// return the best concluded answer, or fail to a straight line.
			calls = cfg.MaxCalls
			if best != nil {
				return Result{Tokens: best.tokens, Prob: best.score, Calls: calls, Reason: "ok"}, nil
			}
			r := lineFallback(cfg, req, "budget")
			r.Calls = calls
			return r, nil
		}
		queries := make([]Query, len(frontier))
		for i, e := range frontier {
			queries[i] = Query{Segment: e.seg.tokens, GapPos: e.gap, TopK: cfg.TopK}
		}
		results, err := predictTimed(ctx, p, cfg, queries)
		if err != nil {
			return Result{}, fmt.Errorf("impute: predictor: %w", err)
		}
		calls += len(frontier)

		var checkStart time.Time
		if cfg.Observe != nil {
			checkStart = time.Now()
		}
		var fresh []beamSeg
		for fi, e := range frontier {
			cands := cfg.Checker.Filter(results[fi], sc)
			n := 0
			for _, cand := range cands {
				if n >= cfg.Beam {
					break
				}
				if cand.Cell == e.seg.tokens[e.gap] || cand.Cell == e.seg.tokens[e.gap+1] {
					continue // trivial cycle with a gap endpoint (§5.2, x=1)
				}
				next := insertAt(e.seg.tokens, e.gap+1, cand.Cell)
				if cfg.Checker.HasCycle(next[:e.gap+2]) {
					continue
				}
				if pathLen(cfg.Tokenizer, next) > maxPath {
					continue // §5.1: exceeds the drivable length bound
				}
				fresh = append(fresh, beamSeg{tokens: next, prob: e.seg.prob * cand.Prob})
				n++
			}
		}
		if cfg.Observe != nil {
			cfg.Observe(StageConstraints, time.Since(checkStart))
		}
		if len(fresh) == 0 {
			break
		}
		// Deduplicate segments reachable via different insertion orders,
		// keeping the most probable, then TopB with the probability lower
		// bound (Algorithm 2 line 13).
		sort.Slice(fresh, func(i, j int) bool { return fresh[i].prob > fresh[j].prob })
		seen := make(map[string]bool, len(fresh))
		dedup := fresh[:0]
		for _, bs := range fresh {
			k := segKey(bs.tokens)
			if seen[k] {
				continue
			}
			seen[k] = true
			dedup = append(dedup, bs)
		}
		fresh = dedup
		if len(fresh) > cfg.Beam {
			fresh = fresh[:cfg.Beam]
		}
		live = live[:0]
		for _, bs := range fresh {
			imputed := len(bs.tokens) - 2
			score := normalize(bs.prob, imputed, cfg.Alpha)
			if best != nil && score < probLimit {
				continue // pruned: cannot beat a concluded answer
			}
			if len(findGaps(cfg.Tokenizer, bs.tokens, maxGap)) == 0 {
				if best == nil || score > best.score {
					best = &answer{tokens: bs.tokens, score: score}
					if score > probLimit {
						probLimit = score
					}
				}
				continue
			}
			live = append(live, bs)
		}
	}

	if best == nil {
		r := lineFallback(cfg, req, "dead-end")
		r.Calls = calls
		return r, nil
	}
	return Result{Tokens: best.tokens, Prob: best.score, Calls: calls, Reason: "ok"}, nil
}
