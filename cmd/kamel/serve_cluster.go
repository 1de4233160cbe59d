package main

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"kamel/internal/cluster"
	"kamel/internal/core"
	"kamel/internal/geo"
	"kamel/internal/obs"
	"kamel/internal/tokenizer"
)

// This file is the HTTP face of the horizontal-sharding layer
// (internal/cluster): spatial routing of imputations to their replica group,
// failover down the group when the primary is unreachable, scatter-gather for
// batches that span groups, the write fan-out that replicates train batches
// across each group, and the degradation ladder when every replica of a cell
// is down (local linear fallback, then 503).
//
// The read ladder, in order: a node serves locally whenever it is a member of
// the trajectory's replica group (the train fan-out put the models here); a
// non-member walks the group in rendezvous rank order, failing over past
// unreachable or refusing replicas; when the whole group is down it degrades
// to the local linear baseline; and only when even that is impossible (no
// projection on this node) does it answer 503.  Degraded and Unavailable are
// counted per trajectory element, exactly once, at the element's final rung.
//
// The one-hop contract: a request carrying cluster.HeaderForwarded is always
// served locally, whatever the shard map says.  Forwarding therefore
// terminates even while two nodes briefly disagree on the map during a
// rollout — the worst case is one extra hop to a node that serves the
// request from a non-owning model (or its linear fallback), never a loop.
// The same header gates the train fan-out, so replicated writes fan out
// exactly once.

// wirePoints converts a wire trajectory's raw triples to routing points.
func wirePoints(tr wireTraj) []geo.Point {
	pts := make([]geo.Point, len(tr.Points))
	for i, p := range tr.Points {
		pts[i] = geo.Point{Lat: p[0], Lng: p[1], T: p[2]}
	}
	return pts
}

// containsShard reports whether ids contains id.
func containsShard(ids []string, id string) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// isForwarded reports whether this request already made its one hop.
func isForwarded(r *http.Request) bool {
	return r.Header.Get(cluster.HeaderForwarded) != ""
}

// remainingDeadlineMS rebases deadline_ms for a forwarded hop.  The owning
// shard restarts its admission timer when the forwarded request arrives, so
// it must receive the budget still left at this hop — forwarding the
// original window verbatim would let the end-to-end deadline stretch by the
// routing and transfer time already spent.  Zero (no deadline) passes
// through; an exhausted budget clamps to 1ms so the shard still applies a
// deadline rather than treating 0 as unlimited (the first hop's context
// cancellation aborts the forward anyway).
func remainingDeadlineMS(ctx context.Context, orig int64) int64 {
	if orig <= 0 {
		return orig
	}
	dl, ok := ctx.Deadline()
	if !ok {
		return orig
	}
	rem := time.Until(dl).Milliseconds()
	if rem < 1 {
		return 1
	}
	if rem > orig {
		return orig
	}
	return rem
}

// clusterUnavailable answers the request with 503 + Retry-After: every
// replica of the trajectory's cell is unreachable and this node has no
// projection to even draw a straight line with.  elements is how many
// trajectory elements hit this final rung (counted once each, so /v1/stats
// and /metrics surface per-element totals).
func (s *apiServer) clusterUnavailable(w http.ResponseWriter, r *http.Request, shard string, elements int64) {
	s.opts.router.CountUnavailable(elements)
	w.Header().Set("Retry-After", "1")
	writeErrorTraced(w, r, http.StatusServiceUnavailable, codeShardDown,
		"every replica of shard "+shard+" unreachable and no local fallback available")
}

// linearItem serves one trajectory down the degradation ladder: the local
// linear baseline, flagged degraded.  ok=false means even that is impossible
// (no projection on this node).
func (s *apiServer) linearItem(tr wireTraj) (wireImputeResult, bool) {
	dense, stats, err := s.sys.ImputeLinear(fromWire([]wireTraj{tr})[0])
	if err != nil {
		return wireImputeResult{}, false
	}
	return wireImputeResult{
		Trajectory: toWirePtr(dense),
		Segments:   stats.Segments,
		Failures:   stats.Failures,
		Degraded:   stats.Degraded,
	}, true
}

// routeSingle routes one trajectory to its replica group.  It reports true
// when it wrote the response (forwarded, degraded, or unavailable); false
// means this node is itself a replica of the trajectory's cell — the caller
// serves it on the ordinary path.  The request envelope is forwarded with
// deadline_ms rebased to the budget remaining at this hop, so the serving
// replica's own admission timer enforces the client's end-to-end deadline;
// the first hop's context (already bounded by the deadline) additionally caps
// the forward itself.
func (s *apiServer) routeSingle(w http.ResponseWriter, r *http.Request, req wireImputeRequest) bool {
	rt := s.opts.router
	if rt == nil || isForwarded(r) {
		return false
	}
	tr := req.wireTraj
	group, _, ok := rt.ReplicaGroup(wirePoints(tr))
	if !ok || containsShard(group, rt.Self()) {
		return false
	}
	req.DeadlineMS = remainingDeadlineMS(r.Context(), req.DeadlineMS)
	body, err := json.Marshal(req)
	if err != nil {
		writeErrorTraced(w, r, http.StatusInternalServerError, codeInternal, "encoding forwarded request: "+err.Error())
		return true
	}
	sp := obs.StartSpan(r.Context(), "cluster.forward")
	res, _, ferr := rt.ForwardAny(r.Context(), group, "/v1/impute", body)
	sp.End()
	if ferr != nil {
		if err := r.Context().Err(); err != nil {
			status, code := imputeErrStatus(err)
			writeError(w, status, code, err.Error())
			return true
		}
		// Whole replica group down (or refusing): degrade to the local
		// linear baseline.
		item, ok := s.linearItem(tr)
		if !ok {
			s.clusterUnavailable(w, r, group[0], 1)
			return true
		}
		rt.CountDegraded(1)
		writeJSON(w, item)
		return true
	}
	// The replica's answer passes through verbatim — a 200, or a
	// non-retryable client error (bad request, too large, ...) that is about
	// the request, not about shard health.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.Status)
	w.Write(res.Body)
	return true
}

// wireBatchResponse is the /v1/impute/batch response document.
type wireBatchResponse struct {
	Results []wireImputeResult `json:"results"`
}

// shardOutcome is one scatter group's result.
type shardOutcome struct {
	label       string   // primary replica (or self), for error messages
	group       []string // full replica group; nil for the local group
	idxs        []int    // original batch positions of this group's items
	items       []wireImputeResult
	unreachable bool  // every replica down after retries (or answered garbage)
	err         error // local system-level error (untrained, cancelled)
}

// routeBatch scatter-gathers a batch across replica groups.  It reports true
// when it wrote the response; false means the whole batch is local (this node
// is a replica of every trajectory's cell).  Each forwarded sub-batch
// re-wraps the originals' admission fields — priority verbatim, deadline_ms
// rebased to the remaining budget — so every replica serves its share at the
// caller's priority within its end-to-end deadline.
func (s *apiServer) routeBatch(w http.ResponseWriter, r *http.Request, req wireBatchRequest) bool {
	rt := s.opts.router
	trajs := req.Trajectories
	if rt == nil || isForwarded(r) || len(trajs) == 0 {
		return false
	}
	self := rt.Self()
	groups := make(map[string]*shardOutcome)
	var order []string // first-seen order keeps the gather deterministic
	local := false
	for i, tr := range trajs {
		g, _, ok := rt.ReplicaGroup(wirePoints(tr))
		key := self
		if ok && !containsShard(g, self) {
			key = strings.Join(g, ",")
		}
		o := groups[key]
		if o == nil {
			o = &shardOutcome{label: self}
			if key != self {
				o.label, o.group = g[0], g
			} else {
				local = true
			}
			groups[key] = o
			order = append(order, key)
		}
		o.idxs = append(o.idxs, i)
	}
	if len(groups) == 1 && local {
		return false // wholly local: the ordinary path serves it
	}

	// Scatter: every replica group gets its sub-batch concurrently — the
	// local group runs through the same ImputeBatch path a single-node
	// deployment uses, remote groups are forwarded with failover down the
	// group.  Each group writes only its own outcome slot, so no locking is
	// needed.
	outs := make([]*shardOutcome, len(order))
	var wg sync.WaitGroup
	for gi, key := range order {
		o := groups[key]
		outs[gi] = o
		wg.Add(1)
		go func(o *shardOutcome) {
			defer wg.Done()
			if o.group == nil {
				o.items, o.err = s.localSubBatch(r, trajs, o.idxs)
				return
			}
			sub := make([]wireTraj, len(o.idxs))
			for j, ix := range o.idxs {
				sub[j] = trajs[ix]
			}
			body, err := json.Marshal(wireBatchRequest{
				Trajectories: sub,
				DeadlineMS:   remainingDeadlineMS(r.Context(), req.DeadlineMS),
				Priority:     req.Priority,
			})
			if err != nil {
				o.err = err
				return
			}
			sp := obs.StartSpan(r.Context(), "cluster.forward")
			res, _, ferr := rt.ForwardAny(r.Context(), o.group, "/v1/impute/batch", body)
			sp.End()
			if ferr != nil || res.Status != http.StatusOK {
				o.unreachable = true
				return
			}
			var resp wireBatchResponse
			if err := json.Unmarshal(res.Body, &resp); err != nil || len(resp.Results) != len(o.idxs) {
				o.unreachable = true // the peer answered garbage; treat as down
				return
			}
			o.items = resp.Results
		}(o)
	}
	wg.Wait()

	// Gather: merge sub-batch results back into original order, degrading
	// unreachable groups item-by-item to the local linear baseline.  Each
	// element is counted at most once, at its final rung: Degraded if the
	// linear baseline served it, Unavailable if nothing could.
	items := make([]wireImputeResult, len(trajs))
	var degraded, unavailable int64
	served := 0
	var sysErr error
	for _, o := range outs {
		switch {
		case o.err != nil:
			sysErr = o.err
		case o.unreachable:
			for _, ix := range o.idxs {
				item, ok := s.linearItem(trajs[ix])
				if !ok {
					unavailable++
					items[ix] = wireImputeResult{Error: &wireError{
						Code:    codeShardDown,
						Message: "every replica of shard " + o.label + " unreachable",
					}}
					continue
				}
				degraded++
				served++
				items[ix] = item
			}
		default:
			for j, ix := range o.idxs {
				items[ix] = o.items[j]
			}
			served += len(o.idxs)
		}
	}
	if sysErr != nil {
		// A local system-level failure (untrained, cancelled) keeps the
		// single-node batch contract: the whole call errors.
		status, code := imputeErrStatus(sysErr)
		writeError(w, status, code, sysErr.Error())
		return true
	}
	if served == 0 && unavailable == int64(len(trajs)) {
		// Every element's whole replica group unreachable and not even a
		// linear fallback: 503 + Retry-After, not a generic 500.  The
		// elements are counted inside clusterUnavailable, once each.
		s.clusterUnavailable(w, r, outs[0].label, unavailable)
		return true
	}
	if degraded > 0 {
		rt.CountDegraded(degraded)
	}
	if unavailable > 0 {
		rt.CountUnavailable(unavailable)
	}
	writeJSON(w, wireBatchResponse{Results: items})
	return true
}

// localSubBatch serves this node's share of a scattered batch through the
// same engine path a forwarded sub-batch hits on its owner.
func (s *apiServer) localSubBatch(r *http.Request, trajs []wireTraj, idxs []int) ([]wireImputeResult, error) {
	sub := make([]wireTraj, len(idxs))
	for j, ix := range idxs {
		sub[j] = trajs[ix]
	}
	results, err := s.sys.ImputeBatch(r.Context(), fromWire(sub))
	if err != nil {
		return nil, err
	}
	return wireResults(results), nil
}

// wireTrainReplication summarizes a train fan-out for the response body:
// how many replica groups the batch spanned, how the peer forwards went,
// and whether every group reached majority quorum.
type wireTrainReplication struct {
	Groups    int  `json:"groups"`     // replica groups the batch partitioned into
	Targets   int  `json:"targets"`    // peer forwards attempted (excludes local)
	Acked     int  `json:"acked"`      // peer forwards acknowledged
	Failed    int  `json:"failed"`     // peer forwards that failed or were refused
	QuorumMet bool `json:"quorum_met"` // every group got majority acks
}

// wireTrainResponse is the /v1/train response on a replicated deployment: the
// usual system stats plus the replication outcome.
type wireTrainResponse struct {
	core.Stats
	Replication *wireTrainReplication `json:"replication,omitempty"`
}

// routeTrain fans a training batch out to each trajectory's full replica
// group — the write path of N-way replication.  It reports true when it wrote
// the response; false means the batch is wholly local (single node, or every
// group collapses to self).  Per group, the local membership trains through
// the ordinary engine path and every peer member receives the group's
// sub-batch once via ForwardWrite (single attempt, no retry: training is not
// idempotent, and a retry after a lost response could apply the batch
// twice).  Acks are best-effort with a quorum report: the call
// fails with 503 only when some group was applied nowhere (the data would be
// silently lost); a group below majority quorum is surfaced in the response
// and the write-quorum counter, and anti-entropy later converges the lagging
// replicas.
func (s *apiServer) routeTrain(w http.ResponseWriter, r *http.Request, trajs []wireTraj) bool {
	rt := s.opts.router
	if rt == nil || isForwarded(r) {
		return false
	}
	self := rt.Self()
	type trainGroup struct {
		members []string
		idxs    []int
	}
	groups := make(map[string]*trainGroup)
	var order []string
	peerTargets := 0
	for i, tr := range trajs {
		members, _, ok := rt.ReplicaGroup(wirePoints(tr))
		if !ok {
			members = []string{self}
		}
		key := strings.Join(members, ",")
		g := groups[key]
		if g == nil {
			g = &trainGroup{members: members}
			groups[key] = g
			order = append(order, key)
			for _, m := range members {
				if m != self {
					peerTargets++
				}
			}
		}
		g.idxs = append(g.idxs, i)
	}
	if peerTargets == 0 {
		return false // wholly local: the ordinary path trains it
	}

	// Freeze this node's token mapping from the FULL spanning batch before
	// scattering, and offer the frozen spec to every peer in the fan-out
	// envelope.  Without this, each replica would derive its own adaptive
	// spec from just its sub-batch, and anti-entropy would (correctly)
	// refuse to exchange models across the divergent token spaces forever.
	var offeredSpec *tokenizer.Spec
	if err := s.sys.EnsureTokenizer(fromWire(trajs)); err != nil {
		writeErrorTraced(w, r, http.StatusInternalServerError, codeInternal, "freezing tokenizer for fan-out: "+err.Error())
		return true
	}
	if tk := s.sys.Tokenizer(); tk != nil {
		spec := tk.Spec()
		offeredSpec = &spec
	}

	// Scatter: the local sub-batch (the union of every group this node
	// belongs to) trains once through the engine; each peer member of each
	// group gets that group's sub-batch concurrently.
	var localIdxs []int
	for _, key := range order {
		if containsShard(groups[key].members, self) {
			localIdxs = append(localIdxs, groups[key].idxs...)
		}
	}
	sort.Ints(localIdxs)

	var wg sync.WaitGroup
	var mu sync.Mutex
	acked := make(map[string]int, len(order)) // group key → successful members
	var localErr error
	localOK := false
	if len(localIdxs) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := make([]wireTraj, len(localIdxs))
			for j, ix := range localIdxs {
				sub[j] = trajs[ix]
			}
			err := s.sys.TrainContext(r.Context(), fromWire(sub))
			mu.Lock()
			localErr, localOK = err, err == nil
			mu.Unlock()
		}()
	}
	var peerAcks, peerFails int64
	for _, key := range order {
		g := groups[key]
		sub := make([]wireTraj, len(g.idxs))
		for j, ix := range g.idxs {
			sub[j] = trajs[ix]
		}
		body, err := json.Marshal(wireTrainRequest{Trajectories: sub, TokenizerSpec: offeredSpec})
		if err != nil {
			writeErrorTraced(w, r, http.StatusInternalServerError, codeInternal, "encoding train fan-out: "+err.Error())
			return true
		}
		for _, m := range g.members {
			if m == self {
				continue
			}
			wg.Add(1)
			go func(key, m string, body []byte) {
				defer wg.Done()
				_, err := rt.ForwardWrite(r.Context(), m, "/v1/train", body)
				mu.Lock()
				if err != nil {
					peerFails++
				} else {
					peerAcks++
					acked[key]++
				}
				mu.Unlock()
			}(key, m, body)
		}
	}
	wg.Wait()

	// Gather: per-group quorum accounting.  Local success counts as an ack
	// for every group this node belongs to.
	var quorumMisses int64
	quorumMet := true
	lost := ""
	for _, key := range order {
		g := groups[key]
		n := acked[key]
		if containsShard(g.members, self) && localOK {
			n++
		}
		if n == 0 {
			lost = g.members[0]
		}
		if n < len(g.members)/2+1 {
			quorumMisses++
			quorumMet = false
		}
	}
	rt.CountWrites(peerAcks, peerFails, quorumMisses)

	if localErr != nil {
		writeErrorTraced(w, r, http.StatusInternalServerError, codeInternal, localErr.Error())
		return true
	}
	if lost != "" {
		// No replica of some group took the sub-batch: the write would be
		// silently lost, so the whole call fails retriably.
		w.Header().Set("Retry-After", "1")
		writeErrorTraced(w, r, http.StatusServiceUnavailable, codeShardDown,
			"training batch for replica group of "+lost+" not applied anywhere")
		return true
	}
	writeJSON(w, wireTrainResponse{
		Stats: s.sys.SystemStats(),
		Replication: &wireTrainReplication{
			Groups:    len(order),
			Targets:   peerTargets,
			Acked:     int(peerAcks),
			Failed:    int(peerFails),
			QuorumMet: quorumMet,
		},
	})
	return true
}

// reloadShardMap re-reads the shard-map file and swaps it into the router —
// the one reload path behind both SIGHUP and POST /v1/cluster/reload (the
// router logs the swap).  status classifies a failure for the HTTP caller: a
// file that cannot be read or parsed is 400; a valid map the router refuses
// (stale generation, or no entry for this node) is a 409 conflict with the
// map it already routes by.
func reloadShardMap(rt *cluster.Router, path string) (m *cluster.Map, status int, err error) {
	m, err = cluster.LoadMap(path)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if err := rt.Reload(m); err != nil {
		return nil, http.StatusConflict, err
	}
	return m, http.StatusOK, nil
}

// handleClusterReload re-reads the shard map file and swaps it in on this
// node.  Operators hit it on every node after rolling out a new map (or send
// SIGHUP); generations only move forward, so racing rollouts are safe.
func (s *apiServer) handleClusterReload(w http.ResponseWriter, r *http.Request) {
	rt := s.opts.router
	if rt == nil {
		writeError(w, http.StatusNotFound, codeNotFound, "clustering is not enabled on this node")
		return
	}
	if s.opts.clusterPath == "" {
		writeError(w, http.StatusConflict, codeConflict, "no shard-map file configured to reload from")
		return
	}
	m, status, err := reloadShardMap(rt, s.opts.clusterPath)
	if err != nil {
		code := codeBadRequest
		if status == http.StatusConflict {
			code = codeConflict
		}
		writeError(w, status, code, err.Error())
		return
	}
	writeJSON(w, map[string]interface{}{
		"status":     "reloaded",
		"generation": m.Generation,
		"shards":     len(m.Shards),
		"replicas":   m.ReplicaCount(),
	})
}
