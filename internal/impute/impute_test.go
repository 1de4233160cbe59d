package impute

import (
	"context"
	"errors"
	"testing"

	"kamel/internal/constraints"
	"kamel/internal/geo"
	"kamel/internal/grid"
	"kamel/internal/tokenizer"
)

// midpointPredictor proposes the cell at the midpoint of the queried gap
// with high probability, plus a decoy far away.  Recursively bisecting every
// gap is guaranteed to converge.
type midpointPredictor struct {
	g grid.Grid
}

func (m midpointPredictor) predict(segment []grid.Cell, gapPos int, topK int) ([]Candidate, error) {
	a := m.g.Centroid(segment[gapPos])
	b := m.g.Centroid(segment[gapPos+1])
	mid := m.g.CellAt(a.Add(b.Sub(a).Scale(0.5)))
	decoy := m.g.CellAt(a.Add(geo.XY{X: 9e5, Y: 9e5}))
	return []Candidate{{Cell: mid, Prob: 0.8}, {Cell: decoy, Prob: 0.1}}, nil
}

// midpoint is the midpointPredictor behind the one Predictor interface.
func midpoint(g grid.Grid) Predictor { return PredictFunc(midpointPredictor{g}.predict) }

var bg = context.Background()

func testCfg() (Config, grid.Grid) {
	g := grid.NewHex(50)
	ch := constraints.NewChecker(tokenizer.NewFixed(g), 30)
	cfg := DefaultConfig(tokenizer.NewFixed(g), ch)
	cfg.MaxGapMeters = 120
	return cfg, g
}

func mkRequest(g grid.Grid, dx float64) Request {
	return Request{
		S:        g.CellAt(geo.XY{X: 0, Y: 0}),
		D:        g.CellAt(geo.XY{X: dx, Y: 0}),
		TimeDiff: dx / 10,
	}
}

func checkDense(t *testing.T, g grid.Grid, tokens []grid.Cell, maxGap float64, req Request) {
	t.Helper()
	if tokens[0] != req.S || tokens[len(tokens)-1] != req.D {
		t.Fatalf("imputed segment must start at S and end at D: %v", tokens)
	}
	for i := 0; i+1 < len(tokens); i++ {
		if d := grid.CentroidDistance(g, tokens[i], tokens[i+1]); d > maxGap {
			t.Errorf("gap %d is %fm, want <= %fm", i, d, maxGap)
		}
	}
}

func TestIterativeFillsGap(t *testing.T) {
	cfg, g := testCfg()
	req := mkRequest(g, 800)
	res, err := Iterative(bg, midpoint(g), cfg, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatal("iterative imputation failed on an easy segment")
	}
	checkDense(t, g, res.Tokens, cfg.MaxGapMeters, req)
	if len(res.Tokens) < 6 {
		t.Errorf("800m gap with 120m max produced only %d tokens", len(res.Tokens))
	}
	if res.Calls == 0 || res.Prob <= 0 {
		t.Errorf("suspicious result: %+v", res)
	}
}

func TestBeamFillsGap(t *testing.T) {
	cfg, g := testCfg()
	req := mkRequest(g, 800)
	res, err := Beam(bg, midpoint(g), cfg, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatal("beam imputation failed on an easy segment")
	}
	checkDense(t, g, res.Tokens, cfg.MaxGapMeters, req)
}

func TestTrivialSegments(t *testing.T) {
	cfg, g := testCfg()
	s := g.CellAt(geo.XY{X: 0, Y: 0})
	// Same cell.
	res, _ := Iterative(bg, midpoint(g), cfg, Request{S: s, D: s})
	if len(res.Tokens) != 1 || res.Failed {
		t.Error("same-cell request must be trivial")
	}
	// Already-dense segment: no predictor call needed.
	req := mkRequest(g, 100)
	res, _ = Beam(bg, failingPredictor, cfg, req)
	if res.Failed || res.Calls != 0 {
		t.Errorf("dense segment must not call the predictor: %+v", res)
	}
}

// failingPredictor always errors.
var failingPredictor = PredictFunc(func([]grid.Cell, int, int) ([]Candidate, error) {
	return nil, errors.New("boom")
})

func TestPredictorErrorsPropagate(t *testing.T) {
	cfg, g := testCfg()
	req := mkRequest(g, 800)
	if _, err := Iterative(bg, failingPredictor, cfg, req); err == nil {
		t.Error("iterative must propagate predictor errors")
	}
	if _, err := Beam(bg, failingPredictor, cfg, req); err == nil {
		t.Error("beam must propagate predictor errors")
	}
}

// uselessPredictor returns candidates that never survive the constraints.
func uselessPredictor(g grid.Grid) Predictor {
	return PredictFunc(func([]grid.Cell, int, int) ([]Candidate, error) {
		return []Candidate{{Cell: g.CellAt(geo.XY{X: 5e6, Y: 5e6}), Prob: 0.9}}, nil
	})
}

func TestFallbackToLine(t *testing.T) {
	cfg, g := testCfg()
	req := mkRequest(g, 800)
	for name, run := range map[string]func() (Result, error){
		"iterative": func() (Result, error) { return Iterative(bg, uselessPredictor(g), cfg, req) },
		"beam":      func() (Result, error) { return Beam(bg, uselessPredictor(g), cfg, req) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Failed {
			t.Errorf("%s: must declare failure with useless candidates", name)
		}
		// The fallback is a straight token line from S to D.
		if res.Tokens[0] != req.S || res.Tokens[len(res.Tokens)-1] != req.D {
			t.Errorf("%s: fallback line endpoints wrong", name)
		}
	}
}

func TestCallBudgetEnforced(t *testing.T) {
	cfg, g := testCfg()
	cfg.MaxCalls = 3
	req := mkRequest(g, 3000) // needs ~25 tokens: budget is far too small
	res, err := Iterative(bg, midpoint(g), cfg, req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed {
		t.Error("exhausted budget must fail to a line")
	}
	if res.Calls > 3 {
		t.Errorf("made %d calls with budget 3", res.Calls)
	}
}

// trapPredictor builds a scenario where the greedy top choice dead-ends:
// from the initial gap it offers trap (p=0.6, leads nowhere) and good
// (p=0.3, on the path).  Any gap adjacent to the trap cell gets no usable
// candidates; gaps on the good path bisect normally.
type trapPredictor struct {
	g    grid.Grid
	trap grid.Cell
}

func (tp trapPredictor) predict(segment []grid.Cell, gapPos int, topK int) ([]Candidate, error) {
	a := segment[gapPos]
	b := segment[gapPos+1]
	if a == tp.trap || b == tp.trap {
		// Dead end: only garbage.
		return []Candidate{{Cell: tp.g.CellAt(geo.XY{X: 7e6, Y: 7e6}), Prob: 0.9}}, nil
	}
	ca, cb := tp.g.Centroid(a), tp.g.Centroid(b)
	mid := tp.g.CellAt(ca.Add(cb.Sub(ca).Scale(0.5)))
	if len(segment) == 2 {
		// First expansion: the greedy trap outranks the good midpoint.
		return []Candidate{{Cell: tp.trap, Prob: 0.6}, {Cell: mid, Prob: 0.3}}, nil
	}
	return []Candidate{{Cell: mid, Prob: 0.8}}, nil
}

func TestBeamRecoversWhereGreedyFails(t *testing.T) {
	cfg, g := testCfg()
	req := mkRequest(g, 500)
	// The trap sits between S and D but off to the side, so it passes the
	// constraints yet leads nowhere.
	trap := g.CellAt(geo.XY{X: 250, Y: 200})
	p := PredictFunc(trapPredictor{g: g, trap: trap}.predict)

	it, err := Iterative(bg, p, cfg, req)
	if err != nil {
		t.Fatal(err)
	}
	if !it.Failed {
		t.Fatal("greedy should dead-end in the trap scenario")
	}
	bm, err := Beam(bg, p, cfg, req)
	if err != nil {
		t.Fatal(err)
	}
	if bm.Failed {
		t.Fatal("beam should recover via the lower-probability branch")
	}
	checkDense(t, g, bm.Tokens, cfg.MaxGapMeters, req)
	for _, tok := range bm.Tokens {
		if tok == trap {
			t.Error("beam result must avoid the trap cell")
		}
	}
}

func TestLengthNormalization(t *testing.T) {
	if got := normalize(0.06, 2, 1); got != 0.12 {
		t.Errorf("normalize(0.06, 2, 1) = %f, want 0.12 (the paper's example)", got)
	}
	if got := normalize(0.5, 0, 1); got != 0.5 {
		t.Error("no imputed tokens: no normalization")
	}
	if got := normalize(0.5, 4, 0); got != 0.5 {
		t.Error("alpha 0 disables normalization")
	}
}

func TestConfigValidate(t *testing.T) {
	cfg, _ := testCfg()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	muts := []func(*Config){
		func(c *Config) { c.Tokenizer = nil },
		func(c *Config) { c.Checker = nil },
		func(c *Config) { c.MaxGapMeters = 0 },
		func(c *Config) { c.MaxCalls = 0 },
		func(c *Config) { c.TopK = 0 },
		func(c *Config) { c.Beam = 0 },
		func(c *Config) { c.Alpha = 2 },
	}
	for i, mut := range muts {
		c := cfg
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestFindGaps(t *testing.T) {
	g := grid.NewHex(50)
	a := g.CellAt(geo.XY{X: 0, Y: 0})
	b := g.CellAt(geo.XY{X: 500, Y: 0})
	c := g.Neighbors(b)[0] // 86.6m from b: under the 120m max gap
	tokens := []grid.Cell{a, b, c}
	tk := tokenizer.NewFixed(g)
	gaps := findGaps(tk, tokens, 120)
	if len(gaps) != 1 || gaps[0] != 0 {
		t.Errorf("findGaps = %v, want [0]", gaps)
	}
	if got := findFirstGap(tk, tokens, 120); got != 0 {
		t.Errorf("findFirstGap = %d", got)
	}
	if got := findFirstGap(tk, tokens[1:], 120); got != -1 {
		t.Errorf("dense segment findFirstGap = %d, want -1", got)
	}
}

// countingPredictor is a native Predictor over midpointPredictor that records
// how work arrives, so tests can assert the algorithms batch.  onCall, when
// set, runs after each Predict.
type countingPredictor struct {
	inner   midpointPredictor
	calls   int
	queries int
	onCall  func()
}

func (c *countingPredictor) Predict(ctx context.Context, queries []Query) ([][]Candidate, error) {
	c.calls++
	c.queries += len(queries)
	if c.onCall != nil {
		defer c.onCall()
	}
	return PredictFunc(c.inner.predict).Predict(ctx, queries)
}

// TestPredictFunc: the per-query adapter answers queries in order, propagates
// the function's errors, and refuses a cancelled context.
func TestPredictFunc(t *testing.T) {
	_, g := testCfg()
	req := mkRequest(g, 800)
	seg := []grid.Cell{req.S, req.D}
	queries := []Query{
		{Segment: seg, GapPos: 0, TopK: 5},
		{Segment: seg, GapPos: 0, TopK: 5},
	}
	got, err := midpoint(g).Predict(bg, queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("adapter returned %d result lists, want 2", len(got))
	}
	want, _ := midpointPredictor{g}.predict(seg, 0, 5)
	for _, cands := range got {
		if len(cands) != len(want) || cands[0] != want[0] {
			t.Fatalf("adapter results diverge from the per-query function: %v vs %v", cands, want)
		}
	}
	if _, err := failingPredictor.Predict(bg, queries); err == nil {
		t.Fatal("adapter must propagate the function's errors")
	}
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := midpoint(g).Predict(ctx, queries); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: error %v, want context.Canceled", err)
	}
}

var algorithms = map[string]func(context.Context, Predictor, Config, Request) (Result, error){
	"iterative": Iterative,
	"beam":      Beam,
}

// TestAlgorithmsBatchFrontiers: both algorithms hand the predictor whole
// frontiers — fewer Predict calls than queries — and Result.Calls counts
// queries, matching the sequential algorithms' budget accounting.
func TestAlgorithmsBatchFrontiers(t *testing.T) {
	cfg, g := testCfg()
	req := mkRequest(g, 800)
	for name, run := range algorithms {
		p := &countingPredictor{inner: midpointPredictor{g}}
		res, err := run(bg, p, cfg, req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failed {
			t.Fatalf("%s: unexpected failure", name)
		}
		if p.queries != res.Calls {
			t.Errorf("%s: result reports %d calls but predictor saw %d queries", name, res.Calls, p.queries)
		}
		if p.calls >= p.queries {
			t.Errorf("%s: %d Predict calls for %d queries; nothing was batched", name, p.calls, p.queries)
		}
	}
}

// TestContextCancellation: a cancelled context must surface ctx.Err() before
// the predictor is consulted again, leaving the call budget unspent.
func TestContextCancellation(t *testing.T) {
	cfg, g := testCfg()
	req := mkRequest(g, 3000)
	ctx, cancel := context.WithCancel(bg)
	cancel()
	for name, run := range algorithms {
		p := &countingPredictor{inner: midpointPredictor{g}}
		_, err := run(ctx, p, cfg, req)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %v, want context.Canceled", name, err)
		}
		if p.calls != 0 {
			t.Errorf("%s: predictor consulted %d times after cancellation", name, p.calls)
		}
	}
}

// TestContextCancelledMidSearch cancels after the first batch: the search
// must stop well before the budget is spent.
func TestContextCancelledMidSearch(t *testing.T) {
	cfg, g := testCfg()
	cfg.MaxCalls = 300
	req := mkRequest(g, 3000)
	ctx, cancel := context.WithCancel(bg)
	p := &countingPredictor{inner: midpointPredictor{g}, onCall: cancel}
	_, err := Beam(ctx, p, cfg, req)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if p.calls != 1 || p.queries >= cfg.MaxCalls {
		t.Fatalf("%d calls / %d of %d budget spent despite cancellation", p.calls, p.queries, cfg.MaxCalls)
	}
}
