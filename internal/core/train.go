package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"time"

	"kamel/internal/bert"
	"kamel/internal/constraints"
	"kamel/internal/detok"
	"kamel/internal/fsx"
	"kamel/internal/geo"
	"kamel/internal/obs"
	"kamel/internal/pyramid"
	"kamel/internal/store"
	"kamel/internal/vocab"
)

// Train ingests a batch of training trajectories (paper Figure 1, left
// input).  It is TrainContext without cancellation.
func (s *System) Train(trajs []geo.Trajectory) error {
	return s.TrainContext(context.Background(), trajs)
}

// TrainContext ingests a batch of training trajectories: tokenizes them,
// appends them to the trajectory store, infers the speed limit for the
// constraints module, rebuilds the detokenization clusters, and runs the
// model-repository maintenance that trains BERT models wherever thresholds
// allow.  Training produces no imputation output; it only enriches the
// system's models.
//
// When a background maintainer is running (Maintain), the expensive model
// rebuilds are scheduled onto it and TrainContext returns as soon as the
// batch is durably appended — train-while-serve: imputation keeps answering
// against the previous model generation throughout.  Without a maintainer
// (or when its queue is full), the rebuild runs synchronously as before.
// The context is checked before each per-region model training — the
// expensive unit of work — so a cancelled request stops enriching models
// promptly; trajectories already appended to the store remain stored.
func (s *System) TrainContext(ctx context.Context, trajs []geo.Trajectory) error {
	if len(trajs) == 0 {
		return fmt.Errorf("core: empty training batch")
	}
	ctx = obs.EnsureSink(ctx, s.obsReg)
	sp := obs.StartSpan(ctx, "train.append")
	batch, err := s.appendBatch(trajs)
	sp.End()
	if err != nil {
		return err
	}
	if s.cfg.DisablePartitioning {
		// Ablation "No Part.": one model over everything (§8.7), always
		// rebuilt synchronously.
		return s.rebuildGlobal(ctx)
	}
	if s.maintaining.Load() {
		select {
		case s.maintCh <- batch:
			s.pendingRebuilds.Add(1)
			return nil
		default:
			// Maintainer backlogged: rebuild synchronously (backpressure).
		}
	}
	return s.rebuild(ctx, batch, false)
}

// appendBatch runs the cheap, latency-sensitive half of training under mu:
// tokenize, append to the store, refresh the speed estimate / constraints /
// detokenization clusters, and publish the refreshed auxiliaries.
func (s *System) appendBatch(trajs []geo.Trajectory) ([]store.Traj, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	started := time.Now()

	if err := s.ensureProjection(trajs); err != nil {
		return nil, err
	}
	// Freeze the token mapping before the first record is written: every
	// persisted artifact downstream is expressed in these tokens.
	if err := s.ensureTokenizerLocked(trajs); err != nil {
		return nil, err
	}
	batch := make([]store.Traj, 0, len(trajs))
	for _, tr := range trajs {
		if len(tr.Points) == 0 {
			continue
		}
		rec := s.tokenize(tr)
		if err := s.st.Append(rec); err != nil {
			return nil, fmt.Errorf("core: storing trajectory %q: %w", tr.ID, err)
		}
		batch = append(batch, rec)
	}
	if len(batch) == 0 {
		return nil, fmt.Errorf("core: training batch had no non-empty trajectories")
	}
	s.refreshSpeedEstimate()
	s.refreshChecker()
	s.rebuildDetok()
	s.trainTime += time.Since(started).Seconds()
	s.publishLocked()
	return batch, nil
}

// rebuild runs pyramid maintenance for one appended batch under maintMu and
// publishes the resulting snapshot.  With commit=true (the background
// maintainer), the repository is additionally committed to disk incrementally
// and its in-memory handles dropped, so the serving path pages rebuilt models
// through the cache — the disk-resident lifecycle of paper §4.
func (s *System) rebuild(ctx context.Context, batch []store.Traj, commit bool) error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	ctx = obs.EnsureSink(ctx, s.obsReg)
	defer obs.StartSpan(ctx, "train.rebuild").End()
	started := time.Now()

	s.mu.Lock()
	st := s.st
	var err error
	if st != nil {
		err = s.ensureRepoLocked()
	}
	repo := s.repo
	s.mu.Unlock()
	if st == nil {
		return fmt.Errorf("core: system is closed")
	}
	if err != nil {
		return err
	}

	// Independent cells rebuild concurrently on a bounded pool; each build
	// is deterministic per task (fixed seed over a fixed training set), so
	// the resulting repository is identical to a serial rebuild.
	err = repo.IngestParallel(st, batch, func(region geo.Rect, rs []store.Traj) (pyramid.Handle, pyramid.ModelMeta, error) {
		if err := ctx.Err(); err != nil {
			return nil, pyramid.ModelMeta{}, err
		}
		return s.buildModelHandle(rs)
	}, s.cfg.RebuildWorkers)
	if err != nil {
		return err
	}
	if commit {
		if _, err := repo.CommitFS(fsx.OS(), s.modelsDir(), bundleCodec{}); err != nil {
			return fmt.Errorf("core: committing model repository: %w", err)
		}
		repo.DropHandles()
	}
	ix := repo.Index()

	s.mu.Lock()
	s.curIndex = ix
	s.trainTime += time.Since(started).Seconds()
	s.publishLocked()
	s.mu.Unlock()
	return nil
}

// buildModelHandle adapts buildModel to the pyramid's BuildFunc signature.
// It may run on a rebuild worker goroutine: it touches only immutable config
// and its own training set, never the Repo.
func (s *System) buildModelHandle(rs []store.Traj) (pyramid.Handle, pyramid.ModelMeta, error) {
	bundle, meta, err := s.buildModel(rs)
	if err != nil {
		return nil, pyramid.ModelMeta{}, err
	}
	s.modelBuilds.Inc()
	return bundle, meta, nil
}

// rebuildGlobal retrains the single global model of the "No Part." ablation.
func (s *System) rebuildGlobal(ctx context.Context) error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	started := time.Now()
	s.mu.RLock()
	st := s.st
	s.mu.RUnlock()
	if st == nil {
		return fmt.Errorf("core: system is closed")
	}
	var all []store.Traj
	st.All(func(tr store.Traj) bool { all = append(all, tr); return true })
	bundle, _, err := s.buildModel(all)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.global = bundle
	s.trainTime += time.Since(started).Seconds()
	s.publishLocked()
	s.mu.Unlock()
	return nil
}

// ErrMaintaining is returned by Maintain when a maintenance loop is already
// running for the system.
var ErrMaintaining = errors.New("core: maintenance loop already running")

// Maintain runs the single background repository maintainer (paper §4.2:
// maintenance is one background process).  While it runs, TrainContext
// schedules model rebuilds here instead of blocking, and each finished
// rebuild is committed to disk and atomically published — imputation is
// never paused.  Maintain blocks until the context is cancelled and returns
// the context's error; at most one maintainer may run per system.
func (s *System) Maintain(ctx context.Context) error {
	if !s.maintaining.CompareAndSwap(false, true) {
		return ErrMaintaining
	}
	defer s.maintaining.Store(false)
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case batch := <-s.maintCh:
			started := time.Now()
			err := s.rebuild(ctx, batch, true)
			s.pendingRebuilds.Add(-1)
			if ctx.Err() != nil {
				// The batch is already in the store; the next rebuild after
				// restart covers its region again.
				return ctx.Err()
			}
			if err != nil {
				s.maintFailures.Inc()
				slog.Error("background model rebuild failed",
					"component", "core", "err", err,
					"batch_trajectories", len(batch),
					"duration_ms", time.Since(started).Milliseconds())
				continue
			}
			s.maintRebuilds.Inc()
			slog.Debug("background model rebuild complete",
				"component", "core",
				"batch_trajectories", len(batch),
				"duration_ms", time.Since(started).Milliseconds())
		}
	}
}

// ensureRepoLocked creates the pyramid builder once the deployment region is
// known.  Callers hold mu (and the maintenance path holds maintMu).
func (s *System) ensureRepoLocked() error {
	if s.repo != nil {
		return nil
	}
	region := s.cfg.Region
	if region.IsEmpty() || region == (geo.Rect{}) {
		// Derive from stored data with generous margins so later batches
		// nearby stay inside.
		region = s.st.Bounds().Expand(0.25*s.st.Bounds().Width() + 500)
	}
	repo, err := pyramid.New(pyramid.Config{
		Root: region,
		H:    s.cfg.PyramidH,
		L:    s.cfg.PyramidL,
		K:    s.cfg.ThresholdK,
	})
	if err != nil {
		return err
	}
	// Plain field assignment — the pre-resolved series were registered at
	// init, so no registry locking happens under mu.
	repo.SetMetrics(s.pyrCommit, s.pyrQuarantine)
	s.repo = repo
	return nil
}

// buildModel trains one BERT model over the given trajectories: builds the
// per-model vocabulary, converts trajectories to token-ID sequences, and
// runs the MLM training loop.
func (s *System) buildModel(rs []store.Traj) (*modelBundle, pyramid.ModelMeta, error) {
	v := vocab.New()
	var seqs [][]int
	var tokenTotal int
	for _, rec := range rs {
		cells := sequenceOf(rec)
		ids := make([]int, len(cells))
		for i, c := range cells {
			ids[i] = v.Add(c)
		}
		tokenTotal += len(ids)
		if len(ids) >= 2 {
			seqs = append(seqs, ids)
		}
	}
	if len(seqs) == 0 {
		return nil, pyramid.ModelMeta{}, fmt.Errorf("core: no usable training sequences")
	}
	// Decline regions whose *fully enclosed* corpus is too thin to train a
	// useful model (the cell's raw token count can clear the paper's
	// threshold while very few whole trajectories fit inside it).  A weak
	// per-cell model would shadow a stronger ancestor at lookup time.
	if !s.cfg.DisablePartitioning && (len(seqs) < 10 || tokenTotal < 600) {
		return nil, pyramid.ModelMeta{}, pyramid.ErrSkip
	}
	cfg := bert.Config{
		VocabSize: v.Size(),
		Hidden:    s.cfg.Hidden,
		Layers:    s.cfg.Layers,
		Heads:     s.cfg.Heads,
		FFN:       s.cfg.FFN,
		MaxSeqLen: s.cfg.MaxSeqLen,
		Seed:      s.cfg.Seed,
	}
	m, err := bert.New(cfg)
	if err != nil {
		return nil, pyramid.ModelMeta{}, err
	}
	tc := s.cfg.Train
	tc.Seed = s.cfg.Seed
	// Scale the step budget to the corpus: a per-cell model over a handful
	// of trajectories converges in far fewer steps than the configured
	// maximum, which keeps pyramid maintenance affordable (training is
	// offline but not free, §4).
	if scaled := 150 + 8*len(seqs); scaled < tc.Steps {
		tc.Steps = scaled
	}
	if tc.Warmup > tc.Steps/4 {
		tc.Warmup = tc.Steps / 4
	}
	stats, err := m.Train(seqs, tc)
	if err != nil {
		return nil, pyramid.ModelMeta{}, err
	}
	meta := pyramid.ModelMeta{
		Tokens:    tokenTotal,
		Sequences: stats.Sequences,
		FinalLoss: stats.FinalLoss,
	}
	return &modelBundle{model: m, vocab: v}, meta, nil
}

// refreshSpeedEstimate infers the constraint speed limit from stored data
// (§5.1: "KAMEL currently uses a fixed speed inferred from its training
// trajectory data").  The 95th percentile of observed point-to-point speeds
// is padded by 50%.
func (s *System) refreshSpeedEstimate() {
	if s.cfg.MaxSpeedMPS > 0 {
		s.speedMPS = s.cfg.MaxSpeedMPS
		return
	}
	// Whole-trajectory speeds (length over duration) are robust to GPS
	// noise, which wildly inflates point-to-point speeds at high sampling
	// rates.
	var speeds []float64
	s.st.All(func(tr store.Traj) bool {
		t := geo.Trajectory{Points: tr.Points}
		if dur := t.Duration(); dur > 0 {
			speeds = append(speeds, t.LengthMeters()/dur)
		}
		return len(speeds) < 100000
	})
	if len(speeds) == 0 {
		s.speedMPS = 40 // conservative urban fallback
		return
	}
	sort.Float64s(speeds)
	s.speedMPS = speeds[len(speeds)*95/100] * 1.3
}

// refreshChecker rebuilds the constraints checker against the current
// tokenizer and speed estimate.  The "No Const." ablation swaps in a vacuous
// checker.
func (s *System) refreshChecker() {
	ch := constraints.NewChecker(s.tokOrBase(), s.speedMPS)
	ch.ConeAngleRad = s.cfg.ConeAngleDeg * degToRad
	ch.CycleLen = s.cfg.CycleLen
	if s.cfg.DisableConstraints {
		// Accept any BERT prediction (§8.7).  Cycle detection stays at the
		// trivial x=1 window, which would otherwise hang iterative
		// imputation forever.
		ch.Disabled = true
		ch.CycleLen = 1
	}
	s.checker = ch
}

const degToRad = 3.14159265358979323846 / 180

// rebuildDetok recomputes the per-token cluster table over everything
// stored (§7 offline operation).
func (s *System) rebuildDetok() {
	var all []store.Traj
	s.st.All(func(tr store.Traj) bool { all = append(all, tr); return true })
	s.detokTab = detok.Build(s.tokOrBase(), s.proj, all, detok.DefaultParams())
}
