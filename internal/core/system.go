package core

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"kamel/internal/baseline"
	"kamel/internal/batcher"
	"kamel/internal/bert"
	"kamel/internal/constraints"
	"kamel/internal/detok"
	"kamel/internal/fsx"
	"kamel/internal/geo"
	"kamel/internal/grid"
	"kamel/internal/modelcache"
	"kamel/internal/obs"
	"kamel/internal/pyramid"
	"kamel/internal/store"
	"kamel/internal/tokenizer"
	"kamel/internal/vocab"
)

// maintQueueDepth bounds how many training batches may be queued for the
// background maintainer before Train falls back to rebuilding synchronously
// (natural backpressure).
const maintQueueDepth = 16

// modelBundle is what the pyramid stores per model: a trained BERT plus the
// vocabulary that maps its token IDs to grid cells.
type modelBundle struct {
	model *bert.Model
	vocab *vocab.Vocab
}

// SizeBytes implements modelcache.Sizer: the bundle's resident footprint
// charged against the model-cache byte budget.
func (b *modelBundle) SizeBytes() int64 {
	return b.model.SizeBytes() + b.vocab.SizeBytes()
}

// serveState is the immutable serving snapshot.  Imputation loads it once
// per request through an atomic pointer and never takes a lock: every field
// is written before publication and read-only afterwards (copy-on-write).
// One request therefore always sees one consistent generation of models,
// detokenization clusters, and constraints — even while training rebuilds
// the next generation concurrently.
type serveState struct {
	seq      int64          // publication sequence, monotonically increasing
	index    *pyramid.Index // model snapshot; nil before partitioned training
	global   *modelBundle   // used when DisablePartitioning is set
	detok    *detok.Table
	checker  *constraints.Checker
	proj     *geo.Projection
	tok      tokenizer.Tokenizer // frozen token mapping this generation was built with
	speedMPS float64             // inferred max speed (§5.1)
}

// System is a deployed KAMEL instance.  Train and Impute may be called from
// multiple goroutines: imputation runs lock-free against the latest
// published serveState, and training serializes internally (short state
// mutations under mu, long model rebuilds under maintMu).
type System struct {
	cfg  Config
	g    grid.Grid // base tessellation; also the routing key space of the cluster layer
	proj *geo.Projection

	// tok is the spatial tokenizer every persisted artifact (store tokens,
	// vocabularies, models, detok clusters) is expressed in.  For the fixed
	// tokenizer it is set at construction; for the adaptive tokenizer it is
	// derived from the first training batch (or loaded from disk) and then
	// frozen — tokens are identities, so the mapping must never change under
	// a trained system.  Guarded by mu; the imputation path reads the copy in
	// the published serveState instead.
	tok       tokenizer.Tokenizer
	tokFrozen bool

	// serve is the atomically-published serving snapshot; see serveState.
	serve atomic.Pointer[serveState]

	// cache pages disk-resident models into memory under a byte budget
	// (paper §4: models live on disk and load per request).  Shared by
	// WithAblation clones.
	cache *modelcache.Cache

	// adm coalesces concurrent requests' BERT predictions into shared
	// engine passes (internal/batcher); shared by WithAblation clones.  Its
	// per-model dispatchers are keyed by engine value and exit when drained,
	// so snapshot churn and cache evictions never leak goroutines; Close
	// drains it.
	adm *batcher.Batcher

	// maintMu serializes model rebuilds (pyramid maintenance, repository
	// commits, global-model training) — the long-running work.  Lock order:
	// maintMu before mu, never the reverse.
	maintMu sync.Mutex
	repo    *pyramid.Repo // builder; guarded by maintMu

	// maintCh feeds appended training batches to the background maintainer
	// (Maintain); maintaining reports whether one is running, and
	// pendingRebuilds counts scheduled-but-unfinished batches.
	maintCh         chan []store.Traj
	maintaining     atomic.Bool
	pendingRebuilds atomic.Int64

	mu        sync.RWMutex
	st        *store.Store
	curIndex  *pyramid.Index // latest repo snapshot, for stats + publication
	global    *modelBundle   // used when DisablePartitioning is set
	detokTab  *detok.Table
	checker   *constraints.Checker
	speedMPS  float64 // inferred max speed (§5.1)
	trainTime float64 // cumulative seconds spent training
	pubSeq    int64   // last published serveState sequence

	// served accumulates per-process serving counters; a pointer so
	// WithAblation clones share the receiver's counters.
	served *servedCounters

	// obsReg is the system's metrics registry: the single source of truth
	// for every serving-side counter, gauge, and latency histogram.  The
	// HTTP layer exposes it at /metrics and registers its own request
	// metrics into it; SystemStats reads the same counters, so the two
	// surfaces can never disagree.  Shared by WithAblation clones.
	obsReg *obs.Registry

	// imputeReqs/imputeErrs count ImputeContext entries and error returns.
	imputeReqs, imputeErrs *obs.Counter
	// maintRebuilds/maintFailures count background maintainer outcomes.
	maintRebuilds, maintFailures *obs.Counter
	// modelBuilds counts per-cell BERT trainings run by pyramid maintenance
	// (the unit of work the rebuild worker pool parallelizes).
	modelBuilds *obs.Counter
	// pyrCommit/pyrQuarantine are resolved once at init and attached to every
	// pyramid.Repo the system creates or loads (Repo.SetMetrics), because the
	// attachment sites hold mu and registry registration is forbidden under mu
	// (the registry's gauge closures take mu.RLock during exposition).
	pyrCommit     *obs.Histogram
	pyrQuarantine *obs.Counter
}

// Obs returns the system's metrics registry, for the serving layer to expose
// at /metrics and to register HTTP-level series into.
func (s *System) Obs() *obs.Registry { return s.obsReg }

// imputeStages are the per-stage span names of one imputation request, in
// pipeline order.  They are pre-registered so /metrics shows every stage
// histogram from the first scrape, not only after traffic.  "impute.beam"
// wraps the whole multipoint search, so it includes its "impute.predict" and
// "impute.constraints" children; the stages overlap by design, they are not
// a partition.
var imputeStages = []string{
	"impute.tokenize", "impute.lookup", "impute.page_in", "impute.predict",
	"impute.constraints", "impute.beam", "impute.detok",
	"train.append", "train.rebuild",
}

// initObs builds the registry and registers every core-owned series.
func (s *System) initObs() {
	reg := obs.NewRegistry()
	s.obsReg = reg
	for _, stage := range imputeStages {
		reg.Stage(stage)
	}
	s.imputeReqs = reg.Counter("kamel_impute_requests_total",
		"ImputeContext/ImputeBatch items entered.")
	s.imputeErrs = reg.Counter("kamel_impute_errors_total",
		"Imputation requests that returned an error (untrained, cancelled, ...).")
	s.maintRebuilds = reg.Counter("kamel_maintain_rebuilds_total",
		"Background maintainer rebuilds completed.")
	s.maintFailures = reg.Counter("kamel_maintain_failures_total",
		"Background maintainer rebuilds that failed.")
	s.modelBuilds = reg.Counter("kamel_rebuild_models_total",
		"Per-cell model trainings run by pyramid maintenance.")
	reg.GaugeFunc("kamel_rebuild_workers",
		"Bounded worker-pool size for concurrent per-cell rebuilds.", func() float64 {
			return float64(s.cfg.RebuildWorkers)
		})
	s.pyrCommit = reg.Histogram("kamel_pyramid_commit_seconds",
		"Wall time of one incremental repository commit (write dirty models, fsync, manifest rename).", nil)
	s.pyrQuarantine = reg.Counter("kamel_pyramid_quarantined_total",
		"Model files sidelined as corrupt at load time.")
	s.served = newServedCounters(reg)
	reg.GaugeFunc("kamel_snapshot_generation",
		"Published serving-snapshot sequence number.", func() float64 {
			if ss := s.serve.Load(); ss != nil {
				return float64(ss.seq)
			}
			return 0
		})
	reg.GaugeFunc("kamel_maintenance_pending",
		"Training batches queued for the background maintainer.", func() float64 {
			return float64(s.pendingRebuilds.Load())
		})
	reg.GaugeFunc("kamel_quarantined_models",
		"Model slots quarantined as corrupt in the current snapshot.", func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			if s.curIndex == nil {
				return 0
			}
			return float64(s.curIndex.QuarantinedModels())
		})
	s.cache.Instrument(reg)
	s.adm = batcher.New(batcher.Options{
		MaxBatch:  s.cfg.BatchMaxSize,
		MaxQueue:  s.cfg.BatchMaxQueue,
		MaxStarve: s.cfg.BatchMaxStarve,
		Registry:  reg,
	})
}

// Batcher returns the admission batcher.  The serving layer feeds its queue
// waits to the admission controller.
func (s *System) Batcher() *batcher.Batcher { return s.adm }

// publishLocked snapshots the current trained state into a fresh serveState
// and publishes it atomically.  Callers hold mu.
func (s *System) publishLocked() {
	s.pubSeq++
	s.serve.Store(&serveState{
		seq:      s.pubSeq,
		index:    s.curIndex,
		global:   s.global,
		detok:    s.detokTab,
		checker:  s.checker,
		proj:     s.proj,
		tok:      s.tok,
		speedMPS: s.speedMPS,
	})
}

// servedCounters are the cumulative imputation-serving counters operators
// read from /v1/stats and /metrics: how much work was served, how much of it
// fell back to a straight line, and how much was degraded by quarantined
// models.  They live in the obs registry so both surfaces read one value.
type servedCounters struct {
	segments *obs.Counter
	failures *obs.Counter
	degraded *obs.Counter
}

func newServedCounters(reg *obs.Registry) *servedCounters {
	return &servedCounters{
		segments: reg.Counter("kamel_served_segments_total",
			"Trajectory gaps imputation attempted to fill."),
		failures: reg.Counter("kamel_served_failures_total",
			"Gaps that fell back to a straight line."),
		degraded: reg.Counter("kamel_degraded_segments_total",
			"Gaps served down the degradation ladder (ancestor model or linear fallback)."),
	}
}

// account folds one request's accounting into the cumulative counters.
func (c *servedCounters) account(st baseline.Stats) {
	if c == nil || st.Segments == 0 && st.Degraded == 0 {
		return
	}
	c.segments.Add(int64(st.Segments))
	c.failures.Add(int64(st.Failures))
	c.degraded.Add(int64(st.Degraded))
}

// New creates a KAMEL system.  The projection is fixed lazily by the first
// training batch unless cfg.Region plus an explicit projection are provided
// via NewWithProjection.
func New(cfg Config) (*System, error) {
	return NewWithProjection(cfg, nil)
}

// NewWithProjection creates a system with a pre-chosen projection (useful
// when the deployment region is known up front).
func NewWithProjection(cfg Config, proj *geo.Projection) (*System, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:     cfg,
		proj:    proj,
		cache:   modelcache.New(resolveCacheBudget(cfg.ModelCacheBytes)),
		maintCh: make(chan []store.Traj, maintQueueDepth),
	}
	s.initObs()
	switch cfg.GridKind {
	case "hex":
		s.g = grid.NewHex(cfg.CellEdgeM)
	case "square":
		edge := cfg.SquareEdgeM
		if edge <= 0 {
			edge = grid.SquareEdgeForHexArea(cfg.CellEdgeM)
		}
		s.g = grid.NewSquare(edge)
	}
	if cfg.Tokenizer != TokenizerAdaptive {
		// The fixed tokenizer is pure configuration; it exists from birth.
		// It stays unfrozen until a persisted spec (disk wins) or the first
		// training batch confirms it — see ensureTokenizerLocked.
		s.tok = tokenizer.NewFixed(s.g)
	}
	if proj != nil {
		if err := s.initStorage(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// initStorage opens the trajectory store once a projection is known and
// persists the projection origin so later processes can reopen it.
func (s *System) initStorage() error {
	st, err := store.Open(filepath.Join(s.cfg.Workdir, "store"), s.proj)
	if err != nil {
		return err
	}
	s.st = st
	return s.saveMeta()
}

// Config returns the (normalized) configuration.
func (s *System) Config() Config { return s.cfg }

// Grid returns the base tessellation.  The cluster layer routes on these
// coarse cells regardless of tokenizer; token-space consumers should use
// Tokenizer instead.
func (s *System) Grid() grid.Grid { return s.g }

// Tokenizer returns the active spatial tokenizer, or nil when an adaptive
// tokenizer is configured but not yet derived (no training, no load).
func (s *System) Tokenizer() tokenizer.Tokenizer {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tok
}

// TokenizerSpecHash returns the canonical hash of the active tokenizer's
// spec — the compatibility fingerprint replicas compare before exchanging
// models — or "" when no tokenizer is active yet.
func (s *System) TokenizerSpecHash() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.tok == nil {
		return ""
	}
	return s.tok.Spec().Hash()
}

// Projection returns the planar projection, or nil before any training.
func (s *System) Projection() *geo.Projection {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.proj
}

// Close releases the underlying store.  It waits for any in-flight model
// rebuild to finish (maintMu) so the store is never closed under a running
// maintenance pass.
func (s *System) Close() error {
	// Drain the admission batcher first: queued predictions fail with
	// batcher.ErrClosed (so in-flight imputations unblock and error out) and
	// running engine passes finish delivering before the store goes away.
	s.adm.Close()
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.st == nil {
		return nil
	}
	err := s.st.Close()
	s.st = nil
	// Unpublish the serving snapshot: a closed system answers ErrNotTrained,
	// as it did before the snapshot scheme.
	s.curIndex = nil
	s.global = nil
	s.publishLocked()
	return err
}

// Stats summarizes the trained state for dashboards and the demo API.  The
// quarantine and serving counters let operators see degradation rates: how
// many persisted models were sidelined as corrupt, and how many served gaps
// were degraded (ancestor model or linear fallback) as a result.
type Stats struct {
	// ShardID labels which shard of a horizontally sharded deployment these
	// stats describe (empty for a single-node system).
	ShardID string `json:"shard_id,omitempty"`

	Trajectories   int     `json:"trajectories"`
	Tokens         int     `json:"tokens"`
	SingleModels   int     `json:"single_models"`
	NeighborModels int     `json:"neighbor_models"`
	DetokTokens    int     `json:"detok_tokens"`
	MaxSpeedMPS    float64 `json:"max_speed_mps"`
	TrainSeconds   float64 `json:"train_seconds"`

	// Tokenizer identity and shape: the kind, the spec fingerprint replicas
	// compare, and — for the adaptive tokenizer — how many base cells were
	// split finer / merged coarser.
	TokenizerKind     string `json:"tokenizer_kind,omitempty"`
	TokenizerSpecHash string `json:"tokenizer_spec_hash,omitempty"`
	SplitCells        int    `json:"split_cells,omitempty"`
	MergeCells        int    `json:"merge_cells,omitempty"`

	QuarantinedModels   int   `json:"quarantined_models"`
	CorruptStoreRecords int   `json:"corrupt_store_records"`
	ServedSegments      int64 `json:"served_segments"`
	ServedFailures      int64 `json:"served_failures"`
	DegradedSegments    int64 `json:"degraded_segments"`

	// Model lifecycle: cache occupancy/traffic, the published snapshot
	// sequence, the on-disk manifest generation, and how many training
	// batches await the background maintainer.
	ModelCacheBudgetBytes int64   `json:"model_cache_budget_bytes"`
	ModelCacheBytes       int64   `json:"model_cache_bytes"`
	ModelCacheModels      int     `json:"model_cache_models"`
	ModelCacheHits        int64   `json:"model_cache_hits"`
	ModelCacheMisses      int64   `json:"model_cache_misses"`
	ModelCacheHitRatio    float64 `json:"model_cache_hit_ratio"`
	ModelCacheEvictions   int64   `json:"model_cache_evictions"`
	ModelCacheLoads       int64   `json:"model_cache_loads"`
	ModelCacheLoadErrors  int64   `json:"model_cache_load_errors"`
	ModelCacheLoadMeanMS  float64 `json:"model_cache_load_mean_ms"`
	SnapshotGeneration    int64   `json:"snapshot_generation"`
	ManifestGeneration    int     `json:"manifest_generation"`
	MaintenancePending    int64   `json:"maintenance_pending"`

	// Admission batching: how concurrent requests' predictions coalesced
	// into shared engine passes (zero-valued when batching is disabled).
	Batcher batcher.Stats `json:"batcher"`
}

// SystemStats reports the current state.
func (s *System) SystemStats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := Stats{ShardID: s.cfg.ShardID, MaxSpeedMPS: s.speedMPS, TrainSeconds: s.trainTime}
	if s.tok != nil {
		out.TokenizerKind = s.tok.Kind()
		out.TokenizerSpecHash = s.tok.Spec().Hash()
		if a, ok := s.tok.(*tokenizer.Adaptive); ok {
			out.SplitCells = a.SplitCells()
			out.MergeCells = a.MergeCells()
		}
	}
	if s.st != nil {
		out.Trajectories = s.st.Len()
		out.Tokens = s.st.TotalTokens()
		out.CorruptStoreRecords = s.st.CorruptRecords()
	}
	if s.curIndex != nil {
		out.SingleModels, out.NeighborModels = s.curIndex.NumModels()
		out.QuarantinedModels = s.curIndex.QuarantinedModels()
		out.ManifestGeneration = s.curIndex.Generation()
	}
	if s.global != nil {
		out.SingleModels++
	}
	if s.detokTab != nil {
		out.DetokTokens = s.detokTab.NumTokens()
	}
	if s.served != nil {
		out.ServedSegments = s.served.segments.Value()
		out.ServedFailures = s.served.failures.Value()
		out.DegradedSegments = s.served.degraded.Value()
	}
	out.SnapshotGeneration = s.pubSeq
	out.MaintenancePending = s.pendingRebuilds.Load()
	out.Batcher = s.adm.Stats()
	cs := s.cache.Stats()
	out.ModelCacheBudgetBytes = cs.BudgetBytes
	out.ModelCacheBytes = cs.Bytes
	out.ModelCacheModels = cs.Models
	out.ModelCacheHits = cs.Hits
	out.ModelCacheMisses = cs.Misses
	out.ModelCacheHitRatio = cs.HitRatio()
	out.ModelCacheEvictions = cs.Evictions
	out.ModelCacheLoads = cs.Loads
	out.ModelCacheLoadErrors = cs.LoadErrors
	if cs.Loads > 0 {
		out.ModelCacheLoadMeanMS = float64(cs.LoadNanos) / float64(cs.Loads) / 1e6
	}
	return out
}

// Ready reports whether the system can serve model-based imputations: at
// least one trained (or loaded) model exists in the published snapshot.  The
// serving layer's readiness probe keys off it.
func (s *System) Ready() bool {
	ss := s.serve.Load()
	if ss == nil {
		return false
	}
	if ss.global != nil {
		return true
	}
	if ss.index == nil {
		return false
	}
	single, neighbor := ss.index.NumModels()
	return single+neighbor > 0
}

// WarmRoot proves the published snapshot's root model — the one covering the
// largest region — is materializable: resident models pass trivially, and
// disk-resident ones are paged in through the cache (then released).  The
// serving layer reports "warming" readiness until this succeeds, so traffic
// is not admitted while the repository directory is unreadable.
func (s *System) WarmRoot(ctx context.Context) error {
	ss := s.serve.Load()
	if ss == nil {
		return ErrNotTrained
	}
	if ss.global != nil {
		return nil
	}
	if ss.index == nil {
		return ErrNotTrained
	}
	ref, ok := ss.index.RootRef()
	if !ok {
		return ErrNotTrained
	}
	_, release, err := s.resolveModel(ctx, ref)
	if err != nil {
		return err
	}
	release()
	return nil
}

// WithAblation returns a read-only view of the trained system with the
// Spatial Constraints and/or Multipoint Imputation modules toggled (paper
// §8.7).  Both switches act purely at imputation time, so the trained models
// are shared with the receiver — the returned system must not be trained or
// closed, and the receiver must outlive it.
func (s *System) WithAblation(disableConstraints, disableMultipoint bool) *System {
	s.mu.RLock()
	defer s.mu.RUnlock()
	clone := &System{
		cfg:       s.cfg,
		g:         s.g,
		tok:       s.tok,
		tokFrozen: s.tokFrozen,
		proj:      s.proj,
		st:        s.st,
		curIndex:  s.curIndex,
		global:    s.global,
		detokTab:  s.detokTab,
		speedMPS:  s.speedMPS,
		served:    s.served,
		cache:     s.cache, // paged models are shared; ablations only change search
		adm:       s.adm,   // coalescing spans ablations: same models, same engine
		maintCh:   make(chan []store.Traj, maintQueueDepth),
		// The observability substrate is shared too: an ablation's requests
		// count toward the same process-wide registry.
		obsReg:        s.obsReg,
		imputeReqs:    s.imputeReqs,
		imputeErrs:    s.imputeErrs,
		maintRebuilds: s.maintRebuilds,
		maintFailures: s.maintFailures,
		pyrCommit:     s.pyrCommit,
		pyrQuarantine: s.pyrQuarantine,
	}
	clone.cfg.DisableConstraints = disableConstraints
	clone.cfg.DisableMultipoint = disableMultipoint
	clone.refreshChecker()
	// The clone publishes its own snapshot: the receiver's trained state
	// with the re-derived checker swapped in.
	if ss := s.serve.Load(); ss != nil {
		ss2 := *ss
		ss2.checker = clone.checker
		clone.pubSeq = ss2.seq
		clone.serve.Store(&ss2)
	}
	return clone
}

// Repo exposes the model repository builder for offline inspection
// (experiment E13).  The builder is owned by the maintenance path; do not
// call this while training or a maintenance loop is active.
func (s *System) Repo() *pyramid.Repo {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	return s.repo
}

// tokenize converts a trajectory to a store record: one spatial token per
// point.  Callers hold mu and have run ensureTokenizerLocked.
func (s *System) tokenize(tr geo.Trajectory) store.Traj {
	rec := store.Traj{ID: tr.ID, Points: tr.Points}
	rec.Tokens = make([]grid.Cell, len(tr.Points))
	for i, p := range tr.Points {
		rec.Tokens[i] = s.tok.Tokenize(s.proj.ToXY(p))
	}
	return rec
}

// sequenceOf collapses a record's tokens into the deduplicated sequence BERT
// trains on: consecutive identical tokens become one, mirroring how a
// sentence does not repeat a word for every acoustic frame.
func sequenceOf(rec store.Traj) []grid.Cell {
	var out []grid.Cell
	for _, c := range rec.Tokens {
		if len(out) == 0 || out[len(out)-1] != c {
			out = append(out, c)
		}
	}
	return out
}

// ensureProjection fixes the projection (and storage) from the first batch.
func (s *System) ensureProjection(trajs []geo.Trajectory) error {
	if s.proj != nil {
		if s.st == nil {
			return s.initStorage()
		}
		return nil
	}
	for _, tr := range trajs {
		if len(tr.Points) > 0 {
			p := tr.Points[0]
			s.proj = geo.NewProjection(p.Lat, p.Lng)
			return s.initStorage()
		}
	}
	return fmt.Errorf("core: cannot fix projection from an empty batch")
}

// metaPath is the workdir file that persists the projection origin, so a
// fresh process can reopen the store and models without retraining.
func (s *System) metaPath() string { return filepath.Join(s.cfg.Workdir, "meta.json") }

// saveMeta persists the projection origin.  The write is atomic: meta.json
// is the root pointer a fresh process recovers everything else from, so it
// must never be observable half-written.
func (s *System) saveMeta() error {
	lat, lng := s.proj.Origin()
	buf, err := json.Marshal(map[string]float64{"origin_lat": lat, "origin_lng": lng})
	if err != nil {
		return err
	}
	return fsx.WriteFileAtomic(fsx.OS(), s.metaPath(), buf)
}

// loadMeta restores the projection origin if previously saved.
func (s *System) loadMeta() error {
	buf, err := fsx.ReadFile(fsx.OS(), s.metaPath())
	if err != nil {
		return err
	}
	var m map[string]float64
	if err := json.Unmarshal(buf, &m); err != nil {
		return fmt.Errorf("core: parsing %s: %w", s.metaPath(), err)
	}
	s.proj = geo.NewProjection(m["origin_lat"], m["origin_lng"])
	return nil
}
