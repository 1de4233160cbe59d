// Package core wires KAMEL's five modules into the system of the paper's
// Figure 1: Tokenization (internal/grid + internal/vocab), Partitioning
// (internal/store + internal/pyramid + internal/bert), Spatial Constraints
// (internal/constraints), Multipoint Imputation (internal/impute) and
// Detokenization (internal/detok).  It exposes offline bulk training and
// imputation, an online streaming mode, the cell-size auto-tuner of §3.2,
// and the ablation switches the paper evaluates in §8.7.
package core

import (
	"fmt"
	"runtime"
	"time"

	"kamel/internal/bert"
	"kamel/internal/geo"
)

// Strategy selects the multipoint-imputation algorithm (paper §6).
type Strategy string

const (
	// StrategyBeam is the bidirectional beam search (Algorithm 2), the
	// default: §6.2 shows it dominating the greedy approach.
	StrategyBeam Strategy = "beam"
	// StrategyIterative is greedy iterative BERT calling (Algorithm 1).
	StrategyIterative Strategy = "iterative"
)

// Tokenizer kinds accepted by Config.Tokenizer.
const (
	// TokenizerFixed is the uniform grid of the paper (§3), the default.
	TokenizerFixed = "fixed"
	// TokenizerAdaptive is the density-adaptive multi-resolution tokenizer.
	TokenizerAdaptive = "adaptive"
)

// Config collects every tunable of the system.  Zero values are filled with
// the paper's defaults by Normalize.
type Config struct {
	// Workdir is where the trajectory store and model repository live.
	Workdir string

	// Tokenization (§3).
	GridKind    string  // "hex" (default) or "square" (§8.5 comparison)
	CellEdgeM   float64 // hexagon edge length (default 75, the paper's tuned value)
	SquareEdgeM float64 // square edge when GridKind=="square" (default: area-matched)
	// Tokenizer selects how points become tokens: "fixed" (default — the
	// uniform grid above) or "adaptive" (density-adaptive multi-resolution:
	// hot cells split into finer sub-cells, sparse cells merge into coarser
	// super-cells, raising the training-data factor of §3 at both ends).
	// Adaptive requires GridKind "hex".  The adaptive mapping is derived from
	// the first training batch, frozen, and persisted next to the model
	// manifest — tokens are identities shared by every persisted artifact.
	Tokenizer string
	// AdaptiveSplitMin/AdaptiveMergeMax/AdaptiveMaxSplit tune the adaptive
	// derivation (tokenizer.BuildOptions).  Zero = automatic thresholds; a
	// negative AdaptiveMergeMax disables merging.
	AdaptiveSplitMin int
	AdaptiveMergeMax int
	AdaptiveMaxSplit int

	// Partitioning (§4).
	Region     geo.Rect // deployment region; empty = derived from first training batch
	PyramidH   int      // pyramid height (paper default 10; repro default 3)
	PyramidL   int      // maintained levels (paper default 3)
	ThresholdK int      // model threshold base k (paper default 20000; repro default lower)

	// BERT architecture and training.
	Hidden, Layers, Heads, FFN, MaxSeqLen int
	Train                                 bert.TrainConfig

	// Multipoint imputation (§6) and constraints (§5).
	Strategy     Strategy
	MaxGapM      float64 // max_gap (default 100)
	Beam         int     // beam width B (default 10)
	TopK         int     // candidates per BERT call
	MaxCalls     int     // BERT call budget per gap
	Alpha        float64 // length-normalization strength (default 1)
	MaxSpeedMPS  float64 // 0 = inferred from training data (§5.1)
	ConeAngleDeg float64 // direction-constraint angle (default 45)
	CycleLen     int     // cycle-detection window x (default 6)

	// ShardID names this process's shard when the deployment is horizontally
	// sharded (internal/cluster): it labels SystemStats and log lines so a
	// fleet's telemetry is attributable per shard.  Empty for a single-node
	// deployment; purely an identity, it changes no serving behaviour.
	ShardID string

	// ModelCacheBytes bounds how many disk-resident models are held in
	// memory at once (paper §4: models live on disk and page in per
	// request).  Positive: an explicit byte budget.  Zero: automatic — a
	// quarter of available memory, clamped to [64 MiB, 4 GiB].  Negative:
	// unbounded (no eviction).
	ModelCacheBytes int64

	// RebuildWorkers bounds how many per-cell model trainings one pyramid
	// maintenance round runs concurrently (internal/pyramid.IngestParallel).
	// Cells' models are independent and each training is seeded
	// deterministically, so the resulting repository is identical at any
	// worker count — only the wall time changes.  0 = automatic (half the
	// CPUs, clamped to [1, 4]); 1 = serial (the pre-parallelism behaviour).
	RebuildWorkers int

	// Admission batching (internal/batcher): concurrent requests' BERT
	// predictions for the same model are coalesced into shared engine
	// passes.  Batching is natural only — a pass starts as soon as the
	// engine is free and takes whatever queued meanwhile — so there is no
	// window to tune.  Zero values take the batcher's defaults.
	BatchMaxSize   int           // queries per coalesced engine call (default 64)
	BatchMaxQueue  int           // queued queries per model before shedding with ErrOverloaded (default 1024; negative unbounded)
	BatchMaxStarve time.Duration // bulk-lane aging bound: wait beyond which dispatches reserve slots for bulk (default 100ms; negative disables)

	// Ablation switches (§8.7, Fig 12-VI).
	DisablePartitioning bool // "No Part.": one global model
	DisableConstraints  bool // "No Const.": accept any BERT prediction
	DisableMultipoint   bool // "No Multi.": one BERT call per gap

	Seed uint64
}

// DefaultConfig returns the reproduction-scale defaults: the paper's
// tokenization/imputation parameters with a laptop-scale BERT.
func DefaultConfig(workdir string) Config {
	return Config{
		Workdir:      workdir,
		GridKind:     "hex",
		CellEdgeM:    75,
		Tokenizer:    TokenizerFixed,
		PyramidH:     3,
		PyramidL:     3,
		ThresholdK:   2000,
		Hidden:       64,
		Layers:       2,
		Heads:        4,
		FFN:          256,
		MaxSeqLen:    64,
		Train:        bert.DefaultTrainConfig(),
		Strategy:     StrategyBeam,
		MaxGapM:      100,
		Beam:         6,
		TopK:         60,
		MaxCalls:     400,
		Alpha:        1,
		ConeAngleDeg: 45,
		CycleLen:     6,
		Seed:         1,
	}
}

// Normalize fills zero fields with defaults and validates the result.
func (c *Config) Normalize() error {
	d := DefaultConfig(c.Workdir)
	if c.GridKind == "" {
		c.GridKind = d.GridKind
	}
	if c.GridKind != "hex" && c.GridKind != "square" {
		return fmt.Errorf("core: unknown grid kind %q", c.GridKind)
	}
	if c.Tokenizer == "" {
		c.Tokenizer = d.Tokenizer
	}
	if c.Tokenizer != TokenizerFixed && c.Tokenizer != TokenizerAdaptive {
		return fmt.Errorf("core: unknown tokenizer %q", c.Tokenizer)
	}
	if c.Tokenizer == TokenizerAdaptive && c.GridKind != "hex" {
		return fmt.Errorf("core: adaptive tokenizer requires GridKind \"hex\", got %q", c.GridKind)
	}
	if c.CellEdgeM <= 0 {
		c.CellEdgeM = d.CellEdgeM
	}
	if c.PyramidH <= 0 {
		c.PyramidH = d.PyramidH
	}
	if c.PyramidL <= 0 {
		c.PyramidL = d.PyramidL
	}
	if c.PyramidL > c.PyramidH+1 {
		return fmt.Errorf("core: PyramidL %d exceeds PyramidH+1", c.PyramidL)
	}
	if c.ThresholdK <= 0 {
		c.ThresholdK = d.ThresholdK
	}
	if c.Hidden <= 0 {
		c.Hidden = d.Hidden
	}
	if c.Layers <= 0 {
		c.Layers = d.Layers
	}
	if c.Heads <= 0 {
		c.Heads = d.Heads
	}
	if c.Hidden%c.Heads != 0 {
		return fmt.Errorf("core: Hidden %d not divisible by Heads %d", c.Hidden, c.Heads)
	}
	if c.FFN <= 0 {
		c.FFN = d.FFN
	}
	if c.MaxSeqLen <= 0 {
		c.MaxSeqLen = d.MaxSeqLen
	}
	if c.Train.Steps <= 0 {
		c.Train = d.Train
	}
	if c.Strategy == "" {
		c.Strategy = d.Strategy
	}
	if c.Strategy != StrategyBeam && c.Strategy != StrategyIterative {
		return fmt.Errorf("core: unknown strategy %q", c.Strategy)
	}
	if c.MaxGapM <= 0 {
		c.MaxGapM = d.MaxGapM
	}
	if c.Beam <= 0 {
		c.Beam = d.Beam
	}
	if c.TopK <= 0 {
		c.TopK = d.TopK
	}
	if c.MaxCalls <= 0 {
		c.MaxCalls = d.MaxCalls
	}
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("core: Alpha %f outside [0,1]", c.Alpha)
	}
	if c.ConeAngleDeg <= 0 {
		c.ConeAngleDeg = d.ConeAngleDeg
	}
	if c.CycleLen <= 0 {
		c.CycleLen = d.CycleLen
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.RebuildWorkers <= 0 {
		w := runtime.NumCPU() / 2
		if w < 1 {
			w = 1
		}
		if w > 4 {
			w = 4
		}
		c.RebuildWorkers = w
	}
	if c.Workdir == "" {
		return fmt.Errorf("core: Workdir is required")
	}
	return nil
}
