package core

import (
	"context"
	"errors"
	"time"

	"kamel/internal/baseline"
	"kamel/internal/batcher"
	"kamel/internal/constraints"
	"kamel/internal/fsx"
	"kamel/internal/geo"
	"kamel/internal/grid"
	"kamel/internal/impute"
	"kamel/internal/modelcache"
	"kamel/internal/obs"
	"kamel/internal/pyramid"
)

// ErrNotTrained is returned by the imputation entry points before any model
// has been trained or loaded.  The HTTP layer maps it to its own error code.
var ErrNotTrained = errors.New("core: system has not been trained")

// ErrOverloaded is returned when the admission batcher sheds a request
// because a model's prediction queue is full.  The HTTP layer maps it to
// 429; retrying after backoff is the intended client behaviour.
var ErrOverloaded = batcher.ErrQueueFull

// systemImputeErr reports errors that abort the whole request rather than
// degrading one gap to a straight line: cancellation, load shedding, and
// shutdown.
func systemImputeErr(ctx context.Context, err error) bool {
	return ctx.Err() != nil || errors.Is(err, batcher.ErrQueueFull) || errors.Is(err, batcher.ErrClosed)
}

// testGapHook, when non-nil, is called once per imputed gap with the serve
// snapshot sequence that served it.  The concurrency tests install it to
// prove a single request never mixes snapshot generations; it must be set
// before any goroutine imputes and never changed afterwards.
var testGapHook func(ctx context.Context, snapshotSeq int64)

// Name implements baseline.Imputer, letting the evaluation harness treat
// KAMEL uniformly with its competitors.
func (s *System) Name() string { return "KAMEL" }

// Impute fills the gaps of one sparse trajectory (paper Figure 1, right
// input) and returns the dense trajectory.  It is ImputeContext without
// cancellation.
func (s *System) Impute(tr geo.Trajectory) (geo.Trajectory, baseline.Stats, error) {
	return s.ImputeContext(context.Background(), tr)
}

// ImputeContext fills the gaps of one sparse trajectory.  Each gap between
// consecutive input points is (1) routed to the best pyramid model for its
// extent, (2) imputed as a token sequence by the configured multipoint
// algorithm under the spatial constraints, and (3) detokenized to GPS
// points.  Gaps no model covers are imputed by a straight line and counted
// as failures, per §4.1.  The context is honored between BERT calls: a
// cancelled request abandons the search mid-gap and returns ctx.Err().
//
// The whole request runs against one atomically-loaded serving snapshot and
// takes no locks: concurrent training and maintenance publish new snapshots
// without ever pausing or tearing an in-flight imputation.  Disk-resident
// models are paged in through the byte-budgeted model cache and pinned for
// the duration of the gap they serve.
func (s *System) ImputeContext(ctx context.Context, tr geo.Trajectory) (geo.Trajectory, baseline.Stats, error) {
	// Bind the system registry as the span sink (keeping any request trace
	// the serving layer attached), so per-stage histograms are fed whether
	// the call arrives over HTTP or as a library call.
	ctx = obs.EnsureSink(ctx, s.obsReg)
	observe := obs.Observer(ctx)
	s.imputeReqs.Inc()
	ss := s.serve.Load()
	var stats baseline.Stats
	if ss == nil || ss.tok == nil || (ss.index == nil && ss.global == nil) {
		s.imputeErrs.Inc()
		return geo.Trajectory{}, stats, ErrNotTrained
	}
	if len(tr.Points) < 2 {
		return tr.Clone(), stats, nil
	}
	out := geo.Trajectory{ID: tr.ID}
	cells := make([]grid.Cell, len(tr.Points))
	xys := make([]geo.XY, len(tr.Points))
	t0 := time.Now()
	for i, p := range tr.Points {
		xys[i] = ss.proj.ToXY(p)
		cells[i] = ss.tok.Tokenize(xys[i])
	}
	observe("impute.tokenize", time.Since(t0))

	for i := 0; i+1 < len(tr.Points); i++ {
		a, b := tr.Points[i], tr.Points[i+1]
		out.Points = append(out.Points, a)
		if xys[i].Dist(xys[i+1]) <= s.cfg.MaxGapM {
			continue // already dense
		}
		stats.Segments++

		res, degraded, ok, err := s.imputeGap(ctx, ss, cells, xys, i, b.T-a.T, observe)
		if err != nil {
			s.imputeErrs.Inc()
			return geo.Trajectory{}, stats, err
		}
		if degraded {
			stats.Degraded++
		}
		if !ok || res.Failed {
			stats.Failures++
			// Straight-line fill (§4.1 / §6 failure behaviour).
			line := geo.ResamplePolyline([]geo.XY{xys[i], xys[i+1]}, s.cfg.MaxGapM)
			s.emit(ss, &out, line[1:len(line)-1], a.T, b.T, xys[i], xys[i+1])
			continue
		}
		// Detokenize the interior tokens (endpoints stay at the observed
		// GPS points, which are more precise than any cell centroid).
		t0 = time.Now()
		pts := ss.detok.Detokenize(res.Tokens)
		observe("impute.detok", time.Since(t0))
		if len(pts) > 2 {
			s.emit(ss, &out, pts[1:len(pts)-1], a.T, b.T, xys[i], xys[i+1])
		}
	}
	out.Points = append(out.Points, tr.Points[len(tr.Points)-1])
	s.served.account(stats)
	return out, stats, nil
}

// BatchResult is one trajectory's outcome from ImputeBatch.
type BatchResult struct {
	Trajectory geo.Trajectory
	Stats      baseline.Stats
	Err        error
}

// ImputeBatch imputes a batch of trajectories and returns one result per
// input, in input order.  System-level failures — an untrained system, a
// cancelled or expired context — abort the whole call; anything that only
// affects a single trajectory lands in its BatchResult.  Results are
// identical to calling ImputeContext per trajectory.
func (s *System) ImputeBatch(ctx context.Context, trs []geo.Trajectory) ([]BatchResult, error) {
	out := make([]BatchResult, len(trs))
	for i, tr := range trs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		dense, stats, err := s.ImputeContext(ctx, tr)
		if err != nil {
			if errors.Is(err, ErrNotTrained) || systemImputeErr(ctx, err) {
				return nil, err
			}
			out[i] = BatchResult{Err: err}
			continue
		}
		out[i] = BatchResult{Trajectory: dense, Stats: stats}
	}
	return out, nil
}

// emit appends interior planar points with timestamps interpolated between
// the two endpoint times, proportional to arc position between the anchors.
func (s *System) emit(ss *serveState, out *geo.Trajectory, interior []geo.XY, t0, t1 float64, a, b geo.XY) {
	full := make([]geo.XY, 0, len(interior)+2)
	full = append(full, a)
	full = append(full, interior...)
	full = append(full, b)
	total := geo.PolylineLength(full)
	var acc float64
	for i, q := range interior {
		acc += full[i].Dist(full[i+1])
		p := ss.proj.ToLatLng(q)
		if total > 0 {
			p.T = t0 + (t1-t0)*acc/total
		} else {
			p.T = t0
		}
		out.Points = append(out.Points, p)
	}
}

// resolveModel materializes the model behind an index reference: resident
// handles are returned directly, disk-resident models are paged in through
// the byte-budgeted cache (deduplicated across concurrent requests) and
// pinned.  The returned release func must be called once the model is no
// longer in use; it is never nil.
func (s *System) resolveModel(ctx context.Context, ref *pyramid.ModelRef) (*modelBundle, func(), error) {
	if ref.Handle != nil {
		return ref.Handle.(*modelBundle), func() {}, nil
	}
	key := modelcache.Key{
		Level: ref.Key.Level, IX: ref.Key.IX, IY: ref.Key.IY,
		Slot: ref.Slot, Generation: ref.Gen,
	}
	pin, err := s.cache.GetOrLoad(ctx, key, func() (modelcache.Sizer, error) {
		h, err := pyramid.ReadModelFS(fsx.OS(), s.modelsDir(), pyramid.FileRef{Name: ref.File, Gen: ref.Gen}, bundleCodec{})
		if err != nil {
			return nil, err
		}
		return h.(*modelBundle), nil
	})
	if err != nil {
		return nil, nil, err
	}
	return pin.Value().(*modelBundle), pin.Release, nil
}

// imputeGap runs the Partitioning lookup and the multipoint algorithm for
// the gap between sparse points i and i+1, whose timestamps differ by dt
// seconds.  ok=false means no model covers the gap.  degraded reports that
// the gap was served down the degradation ladder: the best-fitting model was
// quarantined at load time (ancestor model served instead), or the model
// failed to page in at request time (the caller's linear fallback).  Only
// context errors are returned; any other failure degrades to a failed
// (straight-line) result, preserving the availability contract of §4.1.
func (s *System) imputeGap(ctx context.Context, ss *serveState, cells []grid.Cell, xys []geo.XY, i int, dt float64, observe func(string, time.Duration)) (res impute.Result, degraded, ok bool, err error) {
	if testGapHook != nil {
		testGapHook(ctx, ss.seq)
	}
	bundle := ss.global
	release := func() {}
	if bundle == nil {
		mbr := geo.EmptyRect().ExtendXY(xys[i]).ExtendXY(xys[i+1])
		t0 := time.Now()
		ref, _, info, found := ss.index.LookupBest(mbr)
		observe("impute.lookup", time.Since(t0))
		if !found {
			return impute.Result{}, info.Degraded, false, nil
		}
		degraded = info.Degraded
		t0 = time.Now()
		b, rel, rerr := s.resolveModel(ctx, ref)
		observe("impute.page_in", time.Since(t0))
		if rerr != nil {
			if ctx.Err() != nil {
				return impute.Result{}, degraded, true, rerr
			}
			// The model could not be paged in (file GC'd under an old
			// snapshot, disk corruption, ...): degrade to the linear
			// fallback rather than failing the request.
			return impute.Result{}, true, false, nil
		}
		bundle, release = b, rel
	}
	defer release()

	req := impute.Request{S: cells[i], D: cells[i+1], TimeDiff: dt}
	if i > 0 {
		prev := cells[i-1]
		req.Prev = &prev
	}
	if i+2 < len(cells) {
		next := cells[i+2]
		req.Next = &next
	}

	cfg := impute.Config{
		Tokenizer:    ss.tok,
		Checker:      ss.checker,
		MaxGapMeters: s.cfg.MaxGapM,
		MaxCalls:     s.cfg.MaxCalls,
		TopK:         s.cfg.TopK,
		Beam:         s.cfg.Beam,
		Alpha:        s.cfg.Alpha,
		Observe:      observe,
	}
	p := bundlePredictor{b: bundle, adm: s.adm}

	// "impute.beam" is the whole multipoint search; its predict/constraints
	// children are reported separately by the impute package via cfg.Observe,
	// so the beam bucket overlaps them by design.  The single call of the
	// "No Multi." ablation is all predict.
	stage := "impute.beam"
	t0 := time.Now()
	switch {
	case s.cfg.DisableMultipoint:
		stage = impute.StagePredict
		res, err = singleShot(ctx, p, cfg, req)
	case s.cfg.Strategy == StrategyIterative:
		res, err = impute.Iterative(ctx, p, cfg, req)
	default:
		res, err = impute.Beam(ctx, p, cfg, req)
	}
	observe(stage, time.Since(t0))
	if err != nil {
		if systemImputeErr(ctx, err) {
			return impute.Result{}, degraded, true, err
		}
		return impute.Result{Failed: true}, degraded, true, nil
	}
	return res, degraded, true, nil
}

// singleShot implements the "No Multi." ablation (§8.7): exactly one BERT
// call per gap, inserting only the top valid candidate.  The call goes
// through the same Predictor as the multipoint algorithms, so it is queued,
// prioritized and cancellable like any other prediction.
func singleShot(ctx context.Context, p impute.Predictor, cfg impute.Config, req impute.Request) (impute.Result, error) {
	out, err := p.Predict(ctx, []impute.Query{{Segment: []grid.Cell{req.S, req.D}, TopK: cfg.TopK}})
	if err != nil {
		return impute.Result{}, err
	}
	seg := constraints.Segment{S: req.S, D: req.D, Prev: req.Prev, Next: req.Next, TimeDiff: req.TimeDiff}
	cands := cfg.Checker.Filter(out[0], seg)
	if len(cands) == 0 {
		return impute.Result{Failed: true}, nil
	}
	return impute.Result{
		Tokens: []grid.Cell{req.S, cands[0].Cell, req.D},
		Prob:   cands[0].Prob,
		Calls:  1,
	}, nil
}
