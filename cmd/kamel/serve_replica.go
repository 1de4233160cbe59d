package main

import (
	"net/http"

	"kamel/internal/cluster"
	"kamel/internal/core"
)

// Replication endpoints: the HTTP face of the anti-entropy layer
// (internal/cluster.Syncer).  Every node in a replicated deployment serves
// its replication manifest (what models it has, at what versions) and its
// committed model payloads, and accepts an operator-triggered sweep.  All of
// it is gated on clustering being enabled; a single-node deployment 404s.
// The syncer's cumulative accounting is the anti_entropy block of /v1/stats.
//
//	GET  /v1/cluster/manifest    this node's replication manifest
//	GET  /v1/cluster/model?file= one committed model's encoded payload
//	POST /v1/cluster/antientropy run one sweep now, return its outcome

// replicaStore adapts the core system to cluster.ReplicaStore: manifest
// enumeration from the serving snapshot, payload reads bounded to files the
// snapshot references, and installs through the single-writer commit path.
type replicaStore struct {
	sys *core.System
}

func (rs replicaStore) ManifestDoc() (cluster.ManifestDoc, bool) {
	ix := rs.sys.ServingIndex()
	proj := rs.sys.Projection()
	if ix == nil || proj == nil {
		// Nothing trained or loaded yet: the node has no manifest to offer
		// (it bootstraps through replicated train traffic).
		return cluster.ManifestDoc{}, false
	}
	lat, lng := proj.Origin()
	doc := cluster.ManifestDoc{
		Shard:      rs.sys.Config().ShardID,
		Generation: ix.Generation(),
		OriginLat:  lat,
		OriginLng:  lng,
		Config:     ix.Config(),
		// The frozen tokenizer fingerprint: peers refuse to exchange models
		// across differing token spaces.
		TokenizerSpecHash: rs.sys.TokenizerSpecHash(),
	}
	for _, ref := range ix.Models() {
		if ref.File == "" {
			continue // memory-only, not yet committed: nothing to pull
		}
		doc.Models = append(doc.Models, cluster.ReplicaModel{
			Key: ref.Key, Slot: ref.Slot, File: ref.File, Meta: ref.Meta,
		})
	}
	return doc, true
}

func (rs replicaStore) ModelPayload(file string) ([]byte, error) {
	return rs.sys.ModelPayload(file)
}

func (rs replicaStore) InstallModels(models []cluster.IncomingModel) (int, error) {
	conv := make([]core.ReplicaModel, len(models))
	for i, m := range models {
		conv[i] = core.ReplicaModel{Key: m.Key, Slot: m.Slot, Meta: m.Meta, Payload: m.Payload}
	}
	return rs.sys.InstallReplicaModels(conv)
}

func (s *apiServer) handleClusterManifest(w http.ResponseWriter, r *http.Request) {
	if s.opts.router == nil {
		writeError(w, http.StatusNotFound, codeNotFound, "clustering is not enabled on this node")
		return
	}
	doc, ok := replicaStore{s.sys}.ManifestDoc()
	if !ok {
		writeError(w, http.StatusConflict, codeNotTrained, "no model snapshot to replicate yet")
		return
	}
	writeJSON(w, doc)
}

func (s *apiServer) handleClusterModel(w http.ResponseWriter, r *http.Request) {
	if s.opts.router == nil {
		writeError(w, http.StatusNotFound, codeNotFound, "clustering is not enabled on this node")
		return
	}
	file := r.URL.Query().Get("file")
	if file == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "missing ?file= query parameter")
		return
	}
	buf, err := s.sys.ModelPayload(file)
	if err != nil {
		// Unreferenced names (including traversal attempts) and read failures
		// both land here: the file is not servable.
		writeError(w, http.StatusNotFound, codeNotFound, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(buf)
}

func (s *apiServer) handleClusterAntiEntropy(w http.ResponseWriter, r *http.Request) {
	if s.opts.syncer == nil {
		writeError(w, http.StatusNotFound, codeNotFound, "anti-entropy is not enabled on this node")
		return
	}
	writeJSON(w, s.opts.syncer.SweepOnce(r.Context()))
}
