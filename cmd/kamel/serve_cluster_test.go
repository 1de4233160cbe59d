package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kamel/internal/cluster"
	"kamel/internal/cluster/clustertest"
	"kamel/internal/core"
	"kamel/internal/geo"
	"kamel/internal/roadnet"
	"kamel/internal/trajgen"
)

// quietLogger keeps per-request log lines out of test output.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// clusterReq issues one JSON request and returns the raw response.
func clusterReq(tb testing.TB, method, url string, hdrs map[string]string, body interface{}) (int, http.Header, []byte) {
	tb.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			tb.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		tb.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdrs {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

// copyDir clones a trained workdir so every shard node (and the single-node
// reference) serves byte-identical models — which is what makes element-wise
// parity assertions possible.
func copyDir(tb testing.TB, src, dst string) {
	tb.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		tb.Fatal(err)
	}
}

func writeShardMap(tb testing.TB, path string, m *cluster.Map) {
	tb.Helper()
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		tb.Fatal(err)
	}
}

// forwardRecorder counts the forwarded imputation requests a node receives,
// so tests can assert which shard actually served a routed request.
type forwardRecorder struct {
	next      http.Handler
	forwarded atomic.Int64
}

func (rec *forwardRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(cluster.HeaderForwarded) != "" && strings.HasPrefix(r.URL.Path, "/v1/impute") {
		rec.forwarded.Add(1)
	}
	rec.next.ServeHTTP(w, r)
}

// clusterFixture is an in-process n-shard cluster plus a single-node
// reference server, all serving the same trained models: one system is
// trained once, persisted, and its workdir cloned per node.
type clusterFixture struct {
	c       *clustertest.Cluster
	syss    []*core.System
	single  *httptest.Server // single-node reference over identical models
	recs    []*forwardRecorder
	mapPath string
	sparse  []wireTraj       // sparsified held-out trajectories to impute
	trained []geo.Trajectory // the training set, for version-bumping retrains
}

// newClusterFixture builds the classic R=1 cluster (every cell has a single
// owner); newReplicaFixture generalizes it to N-way replica groups.
func newClusterFixture(tb testing.TB, n int) *clusterFixture {
	return newReplicaFixture(tb, n, 0)
}

// The optional tweaks run against every node's serveOptions after the
// fixture's defaults are applied (the tracing tests use them to pin the
// sampling and slow-retention knobs).
func newReplicaFixture(tb testing.TB, n, replicas int, tweaks ...func(*serveOptions)) *clusterFixture {
	tb.Helper()
	base := tb.TempDir()
	seed := filepath.Join(base, "seed")
	// Partitioning stays on (unlike the single-node serve tests): the fixture
	// persists the trained repository and clones it per node, and only the
	// pyramid repository round-trips through SaveModels/LoadModels.  The
	// model is shrunk to the unit-test scale of internal/core's fixtures so
	// training stays affordable under the race detector; every node and the
	// single-node reference share the identical config, which is what makes
	// element-wise parity assertions valid.
	mkcfg := func(dir, shardID string) core.Config {
		cfg := systemConfig(dir, 200, "", false, false, false)
		cfg.Hidden, cfg.FFN = 32, 128
		cfg.Train.Batch = 12
		cfg.TopK = 40
		cfg.MaxCalls = 150
		cfg.ShardID = shardID
		return cfg
	}
	sys0, err := core.New(mkcfg(seed, ""))
	if err != nil {
		tb.Fatal(err)
	}
	city := roadnet.DefaultCityConfig()
	city.Width, city.Height = 1500, 1500
	city.BlockSpacing = 250
	net := roadnet.GenerateCity(city)
	proj := geo.NewProjection(41.15, -8.61)
	gen := trajgen.DefaultConfig(56)
	gen.GPSNoiseMeters = 3
	trajs, err := trajgen.Generate(net, proj, gen)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sys0.TrainContext(context.Background(), trajs[:48]); err != nil {
		tb.Fatal(err)
	}
	if err := sys0.SaveModels(); err != nil {
		tb.Fatal(err)
	}
	if err := sys0.Close(); err != nil {
		tb.Fatal(err)
	}

	fx := &clusterFixture{mapPath: filepath.Join(base, "shards.json"), trained: trajs[:48]}
	for _, tr := range trajs[48:56] {
		fx.sparse = append(fx.sparse, toWire(tr.Sparsify(800)))
	}

	loadCopy := func(dir, shardID string) *core.System {
		copyDir(tb, seed, dir)
		sys, err := core.New(mkcfg(dir, shardID))
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { sys.Close() })
		if err := sys.LoadModels(); err != nil {
			tb.Fatal(err)
		}
		// Parity assertions below are only meaningful if the nodes serve from
		// real models, not the linear fallback for missing models.
		if !sys.Ready() {
			tb.Fatalf("node %s not ready after loading the cloned repository", shardID)
		}
		if st := sys.SystemStats(); st.SingleModels == 0 {
			tb.Fatalf("node %s loaded no models (stats %+v)", shardID, st)
		}
		return sys
	}
	for i := 0; i < n; i++ {
		fx.syss = append(fx.syss,
			loadCopy(filepath.Join(base, fmt.Sprintf("node-%d", i)), fmt.Sprintf("shard-%d", i)))
	}
	refSys := loadCopy(filepath.Join(base, "single"), "")
	refOpts := defaultServeOptions()
	refOpts.logger = quietLogger()
	fx.single = httptest.NewServer(newAPIHandler(refSys, refOpts))
	tb.Cleanup(fx.single.Close)

	fx.recs = make([]*forwardRecorder, n)
	tmpl := cluster.Map{OriginLat: 41.15, OriginLng: -8.61, CellEdgeM: 250, Replicas: replicas}
	c, err := clustertest.New(n, tmpl,
		func(i int, self string) cluster.Options {
			return cluster.Options{
				Logger:       quietLogger(),
				Registry:     fx.syss[i].Obs(),
				RetryBackoff: time.Millisecond,
			}
		},
		func(i int, self string, rt *cluster.Router) (http.Handler, error) {
			opts := defaultServeOptions()
			opts.logger = quietLogger()
			opts.router = rt
			opts.clusterPath = fx.mapPath
			// On-demand anti-entropy (never Run in tests: sweeps are driven
			// through POST /v1/cluster/antientropy, keeping tests deterministic).
			opts.syncer = cluster.NewSyncer(rt, replicaStore{fx.syss[i]}, cluster.SyncerOptions{
				Logger: quietLogger(),
			})
			for _, tweak := range tweaks {
				tweak(&opts)
			}
			rec := &forwardRecorder{next: newAPIHandler(fx.syss[i], opts)}
			fx.recs[i] = rec
			return rec, nil
		})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	fx.c = c
	writeShardMap(tb, fx.mapPath, c.Map)
	return fx
}

// ownerIdx resolves which shard index is the primary of a wire trajectory's
// replica group (its single owner at R=1).
func (fx *clusterFixture) ownerIdx(tb testing.TB, tr wireTraj) int {
	tb.Helper()
	return shardIdx(tb, fx.groupOf(tb, tr)[0])
}

// ownedBy reports whether shard id is the primary of a trajectory's replica
// group under rt's map.
func ownedBy(rt *cluster.Router, tr wireTraj, id string) bool {
	g, _, ok := rt.ReplicaGroup(wirePoints(tr))
	return ok && g[0] == id
}

// groupOf resolves a wire trajectory's full replica group.
func (fx *clusterFixture) groupOf(tb testing.TB, tr wireTraj) []string {
	tb.Helper()
	g, _, ok := fx.c.Nodes[0].Router.ReplicaGroup(wirePoints(tr))
	if !ok {
		tb.Fatalf("no replica group for trajectory %s", tr.ID)
	}
	return g
}

// shardIdx maps a "shard-N" id back to its node index.
func shardIdx(tb testing.TB, id string) int {
	tb.Helper()
	i, err := strconv.Atoi(strings.TrimPrefix(id, "shard-"))
	if err != nil {
		tb.Fatal(err)
	}
	return i
}

// TestClusterServeEndToEnd drives the full sharded serving surface over one
// in-process 3-shard cluster: routing by shard cell, scatter-gather parity
// against single-node serving, trace stitching, peer failure degradation, and
// shard-map reload.  Subtests share the fixture and run in order; the kill
// and reload subtests mutate the cluster, so they come last.
func TestClusterServeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	fx := newClusterFixture(t, 3)

	owners := map[int]bool{}
	for _, tr := range fx.sparse {
		owners[fx.ownerIdx(t, tr)] = true
	}
	if len(owners) < 2 {
		t.Fatalf("fixture trajectories all owned by one shard — shrink the map's CellEdgeM")
	}
	victim := fx.ownerIdx(t, fx.sparse[0])
	gw := (victim + 1) % len(fx.c.Nodes)

	t.Run("SingleForwardRoutesToOwner", func(t *testing.T) {
		for _, tr := range fx.sparse[:4] {
			oi := fx.ownerIdx(t, tr)
			entry := (oi + 1) % len(fx.c.Nodes) // always a non-owner gateway
			before := fx.recs[oi].forwarded.Load()
			status, _, raw := clusterReq(t, http.MethodPost, fx.c.Nodes[entry].URL()+"/v1/impute", nil, tr)
			if status != http.StatusOK {
				t.Fatalf("impute %s via shard-%d: status %d: %s", tr.ID, entry, status, raw)
			}
			var res wireImputeResult
			if err := json.Unmarshal(raw, &res); err != nil {
				t.Fatal(err)
			}
			if res.Trajectory == nil || len(res.Trajectory.Points) <= len(tr.Points) {
				t.Errorf("%s: forwarded imputation added no points", tr.ID)
			}
			if got := fx.recs[oi].forwarded.Load(); got != before+1 {
				t.Errorf("%s: owner shard-%d saw %d forwarded requests, want %d", tr.ID, oi, got, before+1)
			}
			// Element-wise parity with single-node serving over the same models.
			status, _, refRaw := clusterReq(t, http.MethodPost, fx.single.URL+"/v1/impute", nil, tr)
			if status != http.StatusOK {
				t.Fatalf("single-node impute: status %d: %s", status, refRaw)
			}
			var ref wireImputeResult
			if err := json.Unmarshal(refRaw, &ref); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, ref) {
				t.Errorf("%s: forwarded result differs from single-node serving", tr.ID)
			}
		}
	})

	t.Run("BatchScatterGatherParity", func(t *testing.T) {
		status, _, raw := clusterReq(t, http.MethodPost, fx.c.Nodes[gw].URL()+"/v1/impute/batch", nil, fx.sparse)
		if status != http.StatusOK {
			t.Fatalf("scatter-gather batch: status %d: %s", status, raw)
		}
		var got wireBatchResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Results) != len(fx.sparse) {
			t.Fatalf("batch returned %d results, want %d", len(got.Results), len(fx.sparse))
		}
		status, _, refRaw := clusterReq(t, http.MethodPost, fx.single.URL+"/v1/impute/batch", nil, fx.sparse)
		if status != http.StatusOK {
			t.Fatalf("single-node batch: status %d: %s", status, refRaw)
		}
		var ref wireBatchResponse
		if err := json.Unmarshal(refRaw, &ref); err != nil {
			t.Fatal(err)
		}
		for i := range got.Results {
			if got.Results[i].Error != nil {
				t.Errorf("item %d errored: %v", i, got.Results[i].Error)
			}
			if got.Results[i].Degraded != 0 {
				t.Errorf("item %d degraded with all shards healthy", i)
			}
			if !reflect.DeepEqual(got.Results[i], ref.Results[i]) {
				t.Errorf("item %d: scatter-gathered result differs from single-node serving", i)
			}
		}
	})

	t.Run("AdmissionBatchingOnEveryShard", func(t *testing.T) {
		// Several concurrent spanning batches through one gateway: every
		// shard's share flows through its local admission batcher, and each
		// concurrent caller still gets the single-node reference results.
		status, _, refRaw := clusterReq(t, http.MethodPost, fx.single.URL+"/v1/impute/batch", nil, fx.sparse)
		if status != http.StatusOK {
			t.Fatalf("single-node batch: status %d: %s", status, refRaw)
		}
		var ref wireBatchResponse
		if err := json.Unmarshal(refRaw, &ref); err != nil {
			t.Fatal(err)
		}
		const callers = 4
		type outcome struct {
			status int
			raw    []byte
		}
		outs := make([]outcome, callers)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				st, _, raw := clusterReq(t, http.MethodPost, fx.c.Nodes[gw].URL()+"/v1/impute/batch", nil, fx.sparse)
				outs[c] = outcome{status: st, raw: raw}
			}(c)
		}
		wg.Wait()
		for c, o := range outs {
			if o.status != http.StatusOK {
				t.Fatalf("caller %d: status %d: %s", c, o.status, o.raw)
			}
			var got wireBatchResponse
			if err := json.Unmarshal(o.raw, &got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Results, ref.Results) {
				t.Errorf("caller %d: concurrent scatter-gather diverged from single-node serving", c)
			}
		}
		for i, sys := range fx.syss {
			if st := sys.Batcher().Stats(); st.Items == 0 || st.Batches == 0 {
				t.Errorf("shard-%d batcher saw no work: %+v", i, st)
			}
		}
	})

	// The inline ?debug=1 breakdown is gone: a forwarded request answers
	// without a debug key, and its X-Kamel-Trace-ID resolves on the gateway
	// to the stitched hops that carry what the payload used to.
	t.Run("TraceStitchesAcrossHopsWithoutDebug", func(t *testing.T) {
		var tr wireTraj
		for _, cand := range fx.sparse {
			if fx.ownerIdx(t, cand) != 0 {
				tr = cand
				break
			}
		}
		if tr.ID == "" {
			t.Fatal("no trajectory owned by a remote shard")
		}
		const reqID = "cluster-trace-1"
		status, hdr, raw := clusterReq(t, http.MethodPost, fx.c.Nodes[0].URL()+"/v1/impute?debug=1",
			map[string]string{"X-Request-ID": reqID}, tr)
		if status != http.StatusOK {
			t.Fatalf("forwarded impute: status %d: %s", status, raw)
		}
		if hdr.Get("X-Request-ID") != reqID {
			t.Errorf("X-Request-ID echoed as %q", hdr.Get("X-Request-ID"))
		}
		if bytes.Contains(raw, []byte(`"debug"`)) {
			t.Errorf("forwarded ?debug=1 response still carries a debug key: %s", raw)
		}
		// Poll: the remote hop's store write can race the gateway's response.
		var doc wireTraceDoc
		deadline := time.Now().Add(5 * time.Second)
		for {
			st := traceJSON(t, fx.c.Nodes[0].URL()+"/v1/traces/"+hdr.Get("X-Kamel-Trace-ID"), &doc)
			if st == http.StatusOK && len(doc.Hops) >= 2 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("trace never stitched 2 hops (status %d): %+v", st, doc)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if root := doc.Hops[0]; root.Node != "shard-0" || !hasSpans(root, "cluster.forward") {
			t.Errorf("root hop = %+v, want shard-0 with a cluster.forward span", root)
		}
		wantShard := fmt.Sprintf("shard-%d", fx.ownerIdx(t, tr))
		hop := doc.Hops[1]
		if hop.Node != wantShard || hop.ParentSpanID != doc.Hops[0].SpanID {
			t.Errorf("remote hop = (%q, parent %q), want (%q, parent %q)",
				hop.Node, hop.ParentSpanID, wantShard, doc.Hops[0].SpanID)
		}
		// No impute.detok: a gap that fails to the line fallback skips it
		// (the single-node trace test asserts detok on a filled gap).
		if !hasSpans(hop, "impute.tokenize", "impute.lookup", "impute.predict") {
			t.Errorf("remote hop lacks the imputation stage spans: %+v", hop.Spans)
		}
	})

	t.Run("StatsExposeClusterCounters", func(t *testing.T) {
		status, _, raw := clusterReq(t, http.MethodGet, fx.c.Nodes[gw].URL()+"/v1/stats", nil, nil)
		if status != http.StatusOK {
			t.Fatalf("stats: status %d", status)
		}
		var doc struct {
			ShardID string         `json:"shard_id"`
			Cluster *cluster.Stats `json:"cluster"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		wantSelf := fmt.Sprintf("shard-%d", gw)
		if doc.ShardID != wantSelf {
			t.Errorf("shard_id = %q, want %q", doc.ShardID, wantSelf)
		}
		if doc.Cluster == nil {
			t.Fatal("stats missing the cluster block")
		}
		if doc.Cluster.Self != wantSelf || doc.Cluster.Shards != 3 || doc.Cluster.MapGeneration != 1 {
			t.Errorf("cluster stats = self %q shards %d gen %d, want %q/3/1",
				doc.Cluster.Self, doc.Cluster.Shards, doc.Cluster.MapGeneration, wantSelf)
		}
		if doc.Cluster.Forwards == 0 {
			t.Error("gateway reports zero forwarded requests after scatter-gather")
		}
	})

	t.Run("PeerFailureDegradesOnlyItsShard", func(t *testing.T) {
		var alive wireTraj // owned by a shard that stays up
		for _, cand := range fx.sparse {
			if fx.ownerIdx(t, cand) != victim {
				alive = cand
				break
			}
		}
		fx.c.Kill(victim)

		status, _, raw := clusterReq(t, http.MethodPost, fx.c.Nodes[gw].URL()+"/v1/impute", nil, fx.sparse[0])
		if status != http.StatusOK {
			t.Fatalf("impute with owner down: status %d: %s", status, raw)
		}
		var res wireImputeResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		if res.Degraded == 0 {
			t.Error("dead shard's trajectory not flagged degraded")
		}
		if res.Trajectory == nil || len(res.Trajectory.Points) <= len(fx.sparse[0].Points) {
			t.Error("linear fallback added no points")
		}

		status, _, raw = clusterReq(t, http.MethodPost, fx.c.Nodes[gw].URL()+"/v1/impute", nil, alive)
		if status != http.StatusOK {
			t.Fatalf("impute on surviving shard: status %d: %s", status, raw)
		}
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		if res.Degraded != 0 {
			t.Error("surviving shard's trajectory degraded — failure leaked across shards")
		}

		// A spanning batch degrades only the dead shard's items.
		status, _, raw = clusterReq(t, http.MethodPost, fx.c.Nodes[gw].URL()+"/v1/impute/batch", nil, fx.sparse)
		if status != http.StatusOK {
			t.Fatalf("batch with one shard down: status %d: %s", status, raw)
		}
		var batch wireBatchResponse
		if err := json.Unmarshal(raw, &batch); err != nil {
			t.Fatal(err)
		}
		for i, item := range batch.Results {
			if item.Error != nil {
				t.Errorf("item %d errored: %v", i, item.Error)
				continue
			}
			ownedByVictim := fx.ownerIdx(t, fx.sparse[i]) == victim
			if ownedByVictim && item.Degraded == 0 {
				t.Errorf("item %d owned by dead shard not degraded", i)
			}
			if !ownedByVictim && item.Degraded != 0 {
				t.Errorf("item %d owned by live shard served degraded", i)
			}
		}

		if st := fx.c.Nodes[gw].Router.ClusterStats(); st.Degraded == 0 {
			t.Error("gateway counted no degraded requests")
		}
	})

	t.Run("ShardMapReloadReroutes", func(t *testing.T) {
		victimID := fmt.Sprintf("shard-%d", victim)
		old := *fx.c.Map
		next := old
		next.Generation = old.Generation + 1
		next.Shards = nil
		for _, sh := range old.Shards {
			if sh.ID != victimID {
				next.Shards = append(next.Shards, sh)
			}
		}
		writeShardMap(t, fx.mapPath, &next)
		for i, node := range fx.c.Nodes {
			if i == victim {
				continue
			}
			status, _, raw := clusterReq(t, http.MethodPost, node.URL()+"/v1/cluster/reload", nil, nil)
			if status != http.StatusOK {
				t.Fatalf("reload on shard-%d: status %d: %s", i, status, raw)
			}
			var ack map[string]interface{}
			if err := json.Unmarshal(raw, &ack); err != nil {
				t.Fatal(err)
			}
			if gen, _ := ack["generation"].(float64); int(gen) != next.Generation {
				t.Errorf("shard-%d acked generation %v, want %d", i, ack["generation"], next.Generation)
			}
		}

		// The dead shard's cells re-homed to a survivor, so its trajectory is
		// model-served again — no degradation, no 503.
		if ownedBy(fx.c.Nodes[gw].Router, fx.sparse[0], victimID) {
			t.Fatalf("reload did not re-home cells away from %s", victimID)
		}
		status, _, raw := clusterReq(t, http.MethodPost, fx.c.Nodes[gw].URL()+"/v1/impute", nil, fx.sparse[0])
		if status != http.StatusOK {
			t.Fatalf("impute after reload: status %d: %s", status, raw)
		}
		var res wireImputeResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		if res.Degraded != 0 {
			t.Error("re-homed trajectory still served degraded after reload")
		}

		// A stale (lower-generation) map is rejected with 409 conflict.
		writeShardMap(t, fx.mapPath, &old)
		status, _, raw = clusterReq(t, http.MethodPost, fx.c.Nodes[gw].URL()+"/v1/cluster/reload", nil, nil)
		var body map[string]interface{}
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Fatal(err)
		}
		wantErrorCode(t, status, body, http.StatusConflict, codeConflict)
		writeShardMap(t, fx.mapPath, &next)
	})
}

// TestClusterUnavailableWhenAllOwnersDown exercises the bottom of the
// degradation ladder without any training: the owning peer is dead and the
// local node has no projection, so the answer is 503 + Retry-After with the
// shard_unavailable code — and the refusal is counted in /v1/stats.
func TestClusterUnavailableWhenAllOwnersDown(t *testing.T) {
	var syss []*core.System
	for i := 0; i < 2; i++ {
		sys, err := core.New(systemConfig(t.TempDir(), 90, "", true, false, false))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sys.Close() })
		syss = append(syss, sys)
	}
	tmpl := cluster.Map{OriginLat: 41.15, OriginLng: -8.61, CellEdgeM: 250}
	c, err := clustertest.New(2, tmpl,
		func(i int, self string) cluster.Options {
			return cluster.Options{
				Logger:       quietLogger(),
				Registry:     syss[i].Obs(),
				RetryBackoff: time.Millisecond,
			}
		},
		func(i int, self string, rt *cluster.Router) (http.Handler, error) {
			opts := defaultServeOptions()
			opts.logger = quietLogger()
			opts.router = rt
			return newAPIHandler(syss[i], opts), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	// Find a probe trajectory owned by shard-1 (routing needs no training —
	// the map itself carries the projection origin).
	var tr wireTraj
	for dx := 0; dx < 400 && tr.ID == ""; dx++ {
		lat := 41.15 + float64(dx)*0.002
		cand := wireTraj{ID: "probe", Points: [][3]float64{{lat, -8.61, 0}, {lat, -8.6, 600}}}
		if ownedBy(c.Nodes[0].Router, cand, "shard-1") {
			tr = cand
		}
	}
	if tr.ID == "" {
		t.Fatal("found no shard-1-owned probe trajectory")
	}
	c.Kill(1)

	status, hdr, raw := clusterReq(t, http.MethodPost, c.Nodes[0].URL()+"/v1/impute", nil, tr)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("impute with owner dead and no fallback: status %d: %s", status, raw)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 missing Retry-After")
	}
	var errBody map[string]wireError
	if err := json.Unmarshal(raw, &errBody); err != nil {
		t.Fatal(err)
	}
	if errBody["error"].Code != codeShardDown {
		t.Errorf("error code %q, want %q", errBody["error"].Code, codeShardDown)
	}

	status, hdr, raw = clusterReq(t, http.MethodPost, c.Nodes[0].URL()+"/v1/impute/batch", nil, []wireTraj{tr})
	if status != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("batch with owner dead: status %d (Retry-After %q): %s", status, hdr.Get("Retry-After"), raw)
	}

	status, _, raw = clusterReq(t, http.MethodGet, c.Nodes[0].URL()+"/v1/stats", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("stats: status %d", status)
	}
	var doc struct {
		Cluster *cluster.Stats `json:"cluster"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Cluster == nil || doc.Cluster.Unavailable != 2 {
		t.Errorf("unavailable_requests = %+v, want 2", doc.Cluster)
	}

	// A clustered node started without a shard-map file has nothing to
	// reload: 409 conflict, the code /v1/train uses for its 409.
	status, _, errDoc := call(t, http.MethodPost, c.Nodes[0].URL()+"/v1/cluster/reload", "application/json", "")
	wantErrorCode(t, status, errDoc, http.StatusConflict, codeConflict)
}

// TestClusterReloadWithoutCluster pins the single-node behavior of the
// reload endpoint: clustering off means 404, not a panic or a silent 200.
func TestClusterReloadWithoutCluster(t *testing.T) {
	ts := newTestServer(t)
	status, _, body := call(t, http.MethodPost, ts.URL+"/v1/cluster/reload", "application/json", "")
	wantErrorCode(t, status, body, http.StatusNotFound, codeNotFound)
}

// TestClusterServeFlags pins the two flags that switch `kamel serve` into
// cluster mode: -cluster-config without -cluster-self is refused before
// anything starts, and an unreadable map, or one without this node's id, stops
// the node instead of starting one that cannot route.
func TestClusterServeFlags(t *testing.T) {
	prev := slog.Default() // runServe installs its own process-wide logger
	t.Cleanup(func() { slog.SetDefault(prev) })
	dir := t.TempDir()
	mapPath := filepath.Join(dir, "shards.json")
	writeShardMap(t, mapPath, &cluster.Map{Version: cluster.MapVersion, Generation: 1,
		Shards: []cluster.Shard{{ID: "shard-0", Addr: "http://127.0.0.1:1"}}})
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-cluster-config", mapPath}, "-cluster-self is required"},
		{[]string{"-cluster-config", filepath.Join(dir, "missing.json"), "-cluster-self", "shard-0"}, "reading shard map"},
		{[]string{"-cluster-config", mapPath, "-cluster-self", "shard-9"}, `self shard "shard-9" not in map`},
	} {
		args := append([]string{"-work", filepath.Join(dir, "work"), "-addr", "127.0.0.1:0", "-log-level", "error"}, tc.args...)
		if err := runServe(args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("serve %v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

// TestRemainingDeadlineMS pins the forwarded-deadline rebase: a hop must
// hand the owning shard only the budget still left, never the original
// window (which would restart the client's deadline from the shard's
// arrival time), and never a zero that the shard would read as "no
// deadline".
func TestRemainingDeadlineMS(t *testing.T) {
	bg := context.Background()
	if got := remainingDeadlineMS(bg, 0); got != 0 {
		t.Fatalf("no deadline requested: got %d, want 0 passed through", got)
	}
	// A context without a deadline (deadline_ms set but admission not yet
	// applied) forwards the original window.
	if got := remainingDeadlineMS(bg, 500); got != 500 {
		t.Fatalf("deadline-free context: got %d, want 500", got)
	}
	// Elapsed time shrinks the forwarded budget below the original.
	ctx, cancel := context.WithTimeout(bg, 500*time.Millisecond)
	defer cancel()
	time.Sleep(50 * time.Millisecond)
	got := remainingDeadlineMS(ctx, 500)
	if got >= 500 || got < 1 {
		t.Fatalf("after 50ms of a 500ms budget: forwarded %d, want in [1,500)", got)
	}
	// An exhausted budget clamps to 1ms rather than 0 (= unlimited).
	expired, cancel2 := context.WithTimeout(bg, time.Nanosecond)
	defer cancel2()
	time.Sleep(time.Millisecond)
	if got := remainingDeadlineMS(expired, 500); got != 1 {
		t.Fatalf("expired budget: got %d, want clamp to 1", got)
	}
}

// BenchmarkClusterScatterGather measures a spanning batch through a 3-shard
// in-process cluster (gateway scatter, per-shard sub-batches, in-order
// merge) — the cluster-layer overhead on top of the engine's batch path.
func BenchmarkClusterScatterGather(b *testing.B) {
	fx := newClusterFixture(b, 3)
	body, err := json.Marshal(fx.sparse)
	if err != nil {
		b.Fatal(err)
	}
	url := fx.c.Nodes[0].Server.URL + "/v1/impute/batch"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}
