package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/url"
	"sync"
	"time"

	"kamel/internal/geo"
	"kamel/internal/obs"
	"kamel/internal/pyramid"
)

// Anti-entropy: pull-based replica reconciliation.
//
// With N-way replica groups, a restarted or lagging replica can hold older
// models than its group peers — train fan-out is best-effort, and a node
// that was down while its group trained simply missed those writes.  The
// Syncer closes that gap without operator action: a background loop on each
// node periodically reads every peer's replication manifest (the per-model
// cell/slot/version list derived from the pyramid's manifest machinery),
// and pulls any model where
//
//   - the model's shard cell is replicated on BOTH this node and that peer
//     under the current map (so nodes never hoard models they don't serve),
//   - and the peer's per-slot model version is strictly newer than the local
//     one.  Model versions are bumped once per rebuild and carried verbatim
//     by replication (Repo.Adopt), so they are comparable across nodes —
//     unlike manifest generations, which count local commits.
//
// Pulled payloads are installed through the local repository's single-writer
// commit path, so one sweep converges a stale replica to its group's newest
// versions.  The sweep is pull-based and idempotent: a second sweep finds
// version equality and transfers nothing.

// ReplicaModel is one model slot in a node's replication manifest.
type ReplicaModel struct {
	Key  pyramid.CellKey   `json:"key"`
	Slot string            `json:"slot"`
	File string            `json:"file"`
	Meta pyramid.ModelMeta `json:"meta"`
}

// ManifestDoc is a node's replication manifest: everything a replica peer
// needs to decide what to pull — the pyramid geometry (to place each model's
// cell in space), the projection origin (to map it to the shard grid), and
// the per-model version list.
type ManifestDoc struct {
	Shard      string         `json:"shard"`
	Generation int            `json:"generation"`
	OriginLat  float64        `json:"origin_lat"`
	OriginLng  float64        `json:"origin_lng"`
	Config     pyramid.Config `json:"config"`
	Models     []ReplicaModel `json:"models"`

	// TokenizerSpecHash is the canonical hash of the node's frozen tokenizer
	// spec.  Models are expressed in their tokenizer's token space, so two
	// nodes may exchange models only when their hashes agree; anti-entropy
	// refuses mismatched peers outright.  Empty on nodes predating specs —
	// treated as compatible for rolling upgrades.
	TokenizerSpecHash string `json:"tokenizer_spec_hash,omitempty"`
}

// IncomingModel is one model pulled from a peer, ready to install: identity,
// the peer's metadata (version included, verbatim), and the encoded payload.
type IncomingModel struct {
	Key     pyramid.CellKey
	Slot    string
	Meta    pyramid.ModelMeta
	Payload []byte
}

// ReplicaStore is the local node's model repository as the syncer sees it.
// The serving layer adapts the core system to it.
type ReplicaStore interface {
	// ManifestDoc snapshots the local replication manifest; ok is false when
	// the node has no repository yet (nothing to reconcile against).
	ManifestDoc() (ManifestDoc, bool)
	// ModelPayload returns the raw encoded payload of a committed model file.
	ModelPayload(file string) ([]byte, error)
	// InstallModels decodes and adopts pulled models under the repository's
	// single-writer discipline, returning how many were installed.
	InstallModels(models []IncomingModel) (int, error)
}

// SyncerOptions tune the anti-entropy loop.
type SyncerOptions struct {
	// Interval is the sweep period for Run (default 30s).
	Interval time.Duration
	// Logger receives sweep warnings; nil uses slog.Default().
	Logger *slog.Logger
	// Registry receives the kamel_antientropy_* metrics; nil keeps them
	// private.
	Registry *obs.Registry
}

// SweepStats is the outcome of one anti-entropy sweep.
type SweepStats struct {
	PeersChecked   int `json:"peers_checked"`
	ModelsCompared int `json:"models_compared"`
	Pulled         int `json:"pulled"`
	Errors         int `json:"errors"`
	// TokenizerRejects counts peers skipped because their tokenizer spec
	// hash differs from ours — their models live in a different token space.
	TokenizerRejects int `json:"tokenizer_rejects"`
}

// SyncStats is the syncer's cumulative accounting, reported in /v1/stats.
type SyncStats struct {
	Sweeps     int64      `json:"sweeps"`
	Pulled     int64      `json:"models_pulled"`
	PullErrors int64      `json:"pull_errors"`
	LastSweep  SweepStats `json:"last_sweep"`
}

// Syncer runs the pull-based anti-entropy reconciliation for one node.
type Syncer struct {
	rt    *Router
	store ReplicaStore
	opts  SyncerOptions

	sweeps     *obs.Counter
	pulls      *obs.Counter
	pullErrs   *obs.Counter
	tokRejects *obs.Counter

	mu   sync.Mutex
	last SweepStats
}

// NewSyncer builds a syncer over the node's router and local model store.
func NewSyncer(rt *Router, store ReplicaStore, opts SyncerOptions) *Syncer {
	if opts.Interval <= 0 {
		opts.Interval = 30 * time.Second
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	s := &Syncer{rt: rt, store: store, opts: opts}
	reg := opts.Registry
	s.sweeps = reg.Counter("kamel_antientropy_sweeps_total",
		"Anti-entropy sweeps completed.")
	s.pulls = reg.Counter("kamel_antientropy_pulls_total",
		"Models pulled from replica peers by anti-entropy.")
	s.pullErrs = reg.Counter("kamel_antientropy_pull_errors_total",
		"Anti-entropy manifest reads or model pulls that failed.")
	s.tokRejects = reg.Counter("kamel_antientropy_tokenizer_rejects_total",
		"Peers refused by anti-entropy because their tokenizer spec hash differs.")
	return s
}

// Run sweeps every Interval until ctx is cancelled.  Run it in a goroutine.
func (s *Syncer) Run(ctx context.Context) {
	ticker := time.NewTicker(s.opts.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.SweepOnce(ctx)
		case <-ctx.Done():
			return
		}
	}
}

// Stats snapshots the syncer's cumulative accounting.
func (s *Syncer) Stats() SyncStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SyncStats{
		Sweeps:     s.sweeps.Value(),
		Pulled:     s.pulls.Value(),
		PullErrors: s.pullErrs.Value(),
		LastSweep:  s.last,
	}
}

// SweepOnce reconciles this node against every peer once and reports what it
// did.  Safe to call concurrently with Run only in the trivial sense that
// installs serialize in the store; operationally it is one node's single
// background actor.
func (s *Syncer) SweepOnce(ctx context.Context) SweepStats {
	var stats SweepStats
	defer func() {
		s.sweeps.Inc()
		s.mu.Lock()
		s.last = stats
		s.mu.Unlock()
	}()

	// Give the sweep's GETs a request ID and trace identity so background sync
	// traffic is attributable in peer logs and trace stores — otherwise a
	// manifest read shows up at the peer as anonymous traffic.  Sweeps follow
	// head sampling only (they are never slow/error-retained at this end).
	if obs.RequestIDFrom(ctx) == "" {
		ctx = obs.ContextWithRequestID(ctx, "sync-"+obs.NewRequestID())
	}
	if _, ok := obs.TraceFrom(ctx).Context(); !ok {
		ctx = obs.With(ctx, obs.NewRootTrace(false), s.opts.Registry)
	}

	local, ok := s.store.ManifestDoc()
	if !ok {
		// Nothing local to reconcile against: a node bootstraps its region
		// through train traffic, not anti-entropy.
		return stats
	}
	type slotID struct {
		key  pyramid.CellKey
		slot string
	}
	localVer := make(map[slotID]int, len(local.Models))
	for _, m := range local.Models {
		localVer[slotID{m.Key, m.Slot}] = m.Meta.Version
	}

	self := s.rt.Self()
	for _, peerID := range s.rt.PeerIDs() {
		if ctx.Err() != nil {
			return stats
		}
		res, err := s.rt.Get(ctx, peerID, "/v1/cluster/manifest")
		if err != nil || res.Status != 200 {
			// Unreachable or non-replicating peer; the next sweep retries.
			continue
		}
		stats.PeersChecked++
		var doc ManifestDoc
		if err := json.Unmarshal(res.Body, &doc); err != nil {
			stats.Errors++
			s.pullErrs.Inc()
			continue
		}
		// Token-space compatibility gate: a peer whose frozen tokenizer spec
		// differs produced its models over a different token mapping — its
		// payloads would decode fine and serve garbage.  Refuse the peer.
		// Empty hashes (pre-spec nodes) pass, for rolling upgrades.
		if local.TokenizerSpecHash != "" && doc.TokenizerSpecHash != "" &&
			local.TokenizerSpecHash != doc.TokenizerSpecHash {
			stats.TokenizerRejects++
			s.tokRejects.Inc()
			s.opts.Logger.Warn("anti-entropy refused peer with mismatched tokenizer spec",
				"component", "cluster", "peer", peerID,
				"local_hash", local.TokenizerSpecHash, "peer_hash", doc.TokenizerSpecHash)
			continue
		}
		peerProj := geo.NewProjection(doc.OriginLat, doc.OriginLng)
		var pulls []IncomingModel
		for _, m := range doc.Models {
			stats.ModelsCompared++
			if m.File == "" {
				continue
			}
			id := slotID{m.Key, m.Slot}
			if localVer[id] >= m.Meta.Version {
				continue
			}
			// Replica responsibility check: the model's coverage center,
			// mapped through the PEER's projection (its pyramid lives in that
			// frame), must land in a shard cell replicated on both ends.
			center := doc.Config.CellRect(m.Key).Center()
			group, _, ok := s.rt.ReplicaGroup([]geo.Point{peerProj.ToLatLng(center)})
			if !ok || !containsID(group, self) || !containsID(group, peerID) {
				continue
			}
			pres, err := s.rt.Get(ctx, peerID, "/v1/cluster/model?file="+url.QueryEscape(m.File))
			if err != nil || pres.Status != 200 {
				stats.Errors++
				s.pullErrs.Inc()
				continue
			}
			pulls = append(pulls, IncomingModel{Key: m.Key, Slot: m.Slot, Meta: m.Meta, Payload: pres.Body})
		}
		if len(pulls) == 0 {
			continue
		}
		n, err := s.store.InstallModels(pulls)
		stats.Pulled += n
		s.pulls.Add(int64(n))
		if err != nil {
			stats.Errors++
			s.pullErrs.Inc()
			s.opts.Logger.Warn("anti-entropy install failed", "component", "cluster",
				"peer", peerID, "err", err.Error())
		}
		// Adopted versions are local now; don't re-pull them from a later
		// peer in the same sweep.
		for i := 0; i < n; i++ {
			localVer[slotID{pulls[i].Key, pulls[i].Slot}] = pulls[i].Meta.Version
		}
		s.opts.Logger.Info("anti-entropy pulled models", "component", "cluster",
			"peer", peerID, "models", n)
	}
	return stats
}

func containsID(ids []string, id string) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// String renders sweep stats for logs.
func (st SweepStats) String() string {
	return fmt.Sprintf("peers=%d compared=%d pulled=%d errors=%d tokenizer_rejects=%d",
		st.PeersChecked, st.ModelsCompared, st.Pulled, st.Errors, st.TokenizerRejects)
}
