package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"kamel/internal/cluster"
	"kamel/internal/cluster/clustertest"
	"kamel/internal/core"
	"kamel/internal/geo"
	"kamel/internal/roadnet"
	"kamel/internal/trajgen"
)

// TestClusterReplicaFailoverParity is the headline robustness property of
// N-way replication: with R=2 over three shards, killing ANY single node
// leaves every trajectory's replica group with a live member, so the cluster
// keeps serving full-quality model results — element-wise identical to the
// single-node reference — with zero linear degradations and zero refusals.
func TestClusterReplicaFailoverParity(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	fx := newReplicaFixture(t, 3, 2)

	// The victim is the primary replica of the first probe trajectory; the
	// gateway is the node outside that replica group, so requests for that
	// trajectory must walk the group: dead primary -> live secondary.
	group := fx.groupOf(t, fx.sparse[0])
	if len(group) != 2 {
		t.Fatalf("replica group %v, want 2 members at R=2", group)
	}
	victim := shardIdx(t, group[0])
	gw := -1
	for i := range fx.c.Nodes {
		if id := fmt.Sprintf("shard-%d", i); id != group[0] && id != group[1] {
			gw = i
		}
	}
	if gw < 0 {
		t.Fatal("no node outside the probe trajectory's replica group")
	}
	fx.c.Kill(victim)

	t.Run("SinglesFailOverToSecondary", func(t *testing.T) {
		for _, tr := range fx.sparse {
			status, _, raw := clusterReq(t, http.MethodPost, fx.c.Nodes[gw].URL()+"/v1/impute", nil, tr)
			if status != http.StatusOK {
				t.Fatalf("impute %s with shard-%d dead: status %d: %s", tr.ID, victim, status, raw)
			}
			var res wireImputeResult
			if err := json.Unmarshal(raw, &res); err != nil {
				t.Fatal(err)
			}
			if res.Degraded != 0 {
				t.Errorf("%s: served degraded despite a live replica", tr.ID)
			}
			status, _, refRaw := clusterReq(t, http.MethodPost, fx.single.URL+"/v1/impute", nil, tr)
			if status != http.StatusOK {
				t.Fatalf("single-node impute: status %d: %s", status, refRaw)
			}
			var ref wireImputeResult
			if err := json.Unmarshal(refRaw, &ref); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, ref) {
				t.Errorf("%s: failover result differs from single-node serving", tr.ID)
			}
		}
	})

	t.Run("BatchParityWithNodeDown", func(t *testing.T) {
		status, _, raw := clusterReq(t, http.MethodPost, fx.c.Nodes[gw].URL()+"/v1/impute/batch", nil, fx.sparse)
		if status != http.StatusOK {
			t.Fatalf("batch with shard-%d dead: status %d: %s", victim, status, raw)
		}
		var got wireBatchResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		status, _, refRaw := clusterReq(t, http.MethodPost, fx.single.URL+"/v1/impute/batch", nil, fx.sparse)
		if status != http.StatusOK {
			t.Fatalf("single-node batch: status %d: %s", status, refRaw)
		}
		var ref wireBatchResponse
		if err := json.Unmarshal(refRaw, &ref); err != nil {
			t.Fatal(err)
		}
		if len(got.Results) != len(ref.Results) {
			t.Fatalf("batch returned %d results, want %d", len(got.Results), len(ref.Results))
		}
		for i := range got.Results {
			if got.Results[i].Error != nil {
				t.Errorf("item %d errored: %v", i, got.Results[i].Error)
			}
			if got.Results[i].Degraded != 0 {
				t.Errorf("item %d degraded despite a live replica", i)
			}
			if !reflect.DeepEqual(got.Results[i], ref.Results[i]) {
				t.Errorf("item %d: failover result differs from single-node serving", i)
			}
		}
	})

	t.Run("StatsShowFailoverNotDegradation", func(t *testing.T) {
		st := fx.c.Nodes[gw].Router.ClusterStats()
		if st.Replicas != 2 {
			t.Errorf("replicas = %d, want 2", st.Replicas)
		}
		if st.Failovers == 0 {
			t.Error("gateway recorded no replica failovers with the primary dead")
		}
		if st.Degraded != 0 || st.Unavailable != 0 {
			t.Errorf("degraded=%d unavailable=%d, want 0/0 (replicas absorbed the failure)",
				st.Degraded, st.Unavailable)
		}
	})
}

// TestClusterAntiEntropyConvergence drives the pull-based reconciliation end
// to end over HTTP: node-0 trains ahead (bumping per-slot model versions),
// one operator-triggered sweep on node-1 pulls every newer model, the two
// manifests converge version-for-version, and a second sweep is a no-op.
func TestClusterAntiEntropyConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	fx := newReplicaFixture(t, 2, 2)

	// Node-0 moves ahead: retraining a slice of the corpus marks its cells
	// dirty, and the rebuilt models commit at bumped versions.
	if err := fx.syss[0].TrainContext(context.Background(), fx.trained[:8]); err != nil {
		t.Fatal(err)
	}
	if err := fx.syss[0].SaveModels(); err != nil {
		t.Fatal(err)
	}

	manifest := func(i int) map[string]int {
		t.Helper()
		status, _, raw := clusterReq(t, http.MethodGet, fx.c.Nodes[i].URL()+"/v1/cluster/manifest", nil, nil)
		if status != http.StatusOK {
			t.Fatalf("manifest on shard-%d: status %d: %s", i, status, raw)
		}
		var doc cluster.ManifestDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		out := map[string]int{}
		for _, m := range doc.Models {
			out[fmt.Sprintf("%d/%d/%d/%s", m.Key.Level, m.Key.IX, m.Key.IY, m.Slot)] = m.Meta.Version
		}
		return out
	}
	v0, v1 := manifest(0), manifest(1)
	ahead := 0
	for k, v := range v0 {
		if v1[k] < v {
			ahead++
		}
	}
	if ahead == 0 {
		t.Fatal("retrain bumped no versions on node-0; the test is vacuous")
	}

	// One sweep on the lagging node pulls every newer model.
	status, _, raw := clusterReq(t, http.MethodPost, fx.c.Nodes[1].URL()+"/v1/cluster/antientropy", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("anti-entropy sweep: status %d: %s", status, raw)
	}
	var sweep cluster.SweepStats
	if err := json.Unmarshal(raw, &sweep); err != nil {
		t.Fatal(err)
	}
	if sweep.Errors != 0 || sweep.Pulled < ahead {
		t.Fatalf("sweep = %+v, want >= %d pulls and no errors", sweep, ahead)
	}

	// Converged: node-1 now serves node-0's versions, slot for slot.
	v1 = manifest(1)
	for k, v := range v0 {
		if v1[k] != v {
			t.Errorf("model %s: node-1 at version %d after sweep, node-0 at %d", k, v1[k], v)
		}
	}

	// Idempotent: a second sweep finds nothing newer.
	status, _, raw = clusterReq(t, http.MethodPost, fx.c.Nodes[1].URL()+"/v1/cluster/antientropy", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("second sweep: status %d: %s", status, raw)
	}
	if err := json.Unmarshal(raw, &sweep); err != nil {
		t.Fatal(err)
	}
	if sweep.Pulled != 0 {
		t.Errorf("second sweep pulled %d models, want 0 (converged)", sweep.Pulled)
	}

	// /v1/stats surfaces the accounting.
	status, _, raw = clusterReq(t, http.MethodGet, fx.c.Nodes[1].URL()+"/v1/stats", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("stats: status %d: %s", status, raw)
	}
	var doc wireStats
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Cluster == nil || doc.Cluster.Replicas != 2 {
		t.Errorf("stats cluster block = %+v, want replicas 2", doc.Cluster)
	}
	if doc.AntiEntropy == nil || doc.AntiEntropy.Sweeps != 2 || doc.AntiEntropy.Pulled < int64(ahead) {
		t.Errorf("anti-entropy stats = %+v, want 2 sweeps and >= %d pulls", doc.AntiEntropy, ahead)
	}
}

// TestClusterTrainFanoutReplication checks the replicated write path: a train
// batch sent to one node of an R=2 pair is applied on BOTH replicas (the peer
// receives it via single-attempt write forwards), the response reports the
// fan-out, and with the peer dead the write still lands locally but the
// response and counters surface the missed quorum.
func TestClusterTrainFanoutReplication(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	base := t.TempDir()
	var syss []*core.System
	for i := 0; i < 2; i++ {
		// Partitioning off: the write path under test is the replica fan-out,
		// not the pyramid, and a global model trains fast enough for -race.
		cfg := systemConfig(filepath.Join(base, fmt.Sprintf("node-%d", i)), 30, "", true, false, false)
		cfg.Hidden, cfg.FFN = 32, 128
		cfg.Train.Batch = 8
		cfg.ShardID = fmt.Sprintf("shard-%d", i)
		sys, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sys.Close() })
		syss = append(syss, sys)
	}
	tmpl := cluster.Map{OriginLat: 41.15, OriginLng: -8.61, CellEdgeM: 250, Replicas: 2}
	c, err := clustertest.New(2, tmpl,
		func(i int, self string) cluster.Options {
			return cluster.Options{
				Logger:       quietLogger(),
				Registry:     syss[i].Obs(),
				RetryBackoff: time.Millisecond,
				// The forwarded sub-batch TRAINS on the peer before acking,
				// which takes far longer than a forwarded read.
				ForwardTimeout: 2 * time.Minute,
			}
		},
		func(i int, self string, rt *cluster.Router) (http.Handler, error) {
			opts := defaultServeOptions()
			opts.logger = quietLogger()
			opts.router = rt
			opts.requestTimeout = 2 * time.Minute // training inside the handler
			return newAPIHandler(syss[i], opts), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	city := roadnet.DefaultCityConfig()
	city.Width, city.Height = 1000, 1000
	city.BlockSpacing = 250
	net := roadnet.GenerateCity(city)
	gen := trajgen.DefaultConfig(6)
	gen.GPSNoiseMeters = 3
	trajs, err := trajgen.Generate(net, geo.NewProjection(41.15, -8.61), gen)
	if err != nil {
		t.Fatal(err)
	}
	var body []wireTraj
	for _, tr := range trajs {
		body = append(body, toWire(tr))
	}

	status, _, raw := clusterReq(t, http.MethodPost, c.Nodes[0].URL()+"/v1/train", nil, body)
	if status != http.StatusOK {
		t.Fatalf("replicated train: status %d: %s", status, raw)
	}
	var res wireTrainResponse
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Replication == nil {
		t.Fatal("train response on a replicated deployment missing the replication block")
	}
	rep := res.Replication
	if rep.Groups < 1 || rep.Targets < 1 {
		t.Fatalf("replication = %+v, want at least one group with a peer target", rep)
	}
	if rep.Acked != rep.Targets || rep.Failed != 0 || !rep.QuorumMet {
		t.Fatalf("replication = %+v, want every peer acked and quorum met", rep)
	}
	for i, sys := range syss {
		if !sys.Ready() {
			t.Errorf("shard-%d not trained after the replicated write", i)
		}
	}
	if st := c.Nodes[0].Router.ClusterStats(); st.WriteForwards < 1 || st.WriteErrors != 0 {
		t.Errorf("router write stats = forwards %d errors %d, want >=1/0", st.WriteForwards, st.WriteErrors)
	}

	// Peer down: the write still lands on the local replica (200, data safe)
	// but quorum is reported missed — anti-entropy repairs the peer later.
	c.Kill(1)
	status, _, raw = clusterReq(t, http.MethodPost, c.Nodes[0].URL()+"/v1/train", nil, body)
	if status != http.StatusOK {
		t.Fatalf("train with peer dead: status %d: %s", status, raw)
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Replication == nil || res.Replication.QuorumMet || res.Replication.Failed < 1 {
		t.Fatalf("replication with peer dead = %+v, want failed forwards and quorum missed", res.Replication)
	}
	if st := c.Nodes[0].Router.ClusterStats(); st.QuorumFailures < 1 || st.WriteErrors < 1 {
		t.Errorf("router write stats = quorum failures %d errors %d, want >=1/>=1", st.QuorumFailures, st.WriteErrors)
	}
}

// TestClusterBatchAccountingPerElement pins the degradation-ladder accounting
// fix: every batch element is counted exactly once, at its final rung.  A
// 3-element batch whose owner is dead (this node has a projection, so the
// linear baseline serves) moves the degraded counter by exactly 3 — not 6,
// which the old per-group-and-per-element double counting produced.
func TestClusterBatchAccountingPerElement(t *testing.T) {
	sys0, err := core.NewWithProjection(
		systemConfig(t.TempDir(), 90, "", true, false, false), geo.NewProjection(41.15, -8.61))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys0.Close() })
	sys1, err := core.New(systemConfig(t.TempDir(), 90, "", true, false, false))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys1.Close() })
	syss := []*core.System{sys0, sys1}

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

	// Three distinct probe trajectories, all owned by shard-1.
	var probes []wireTraj
	for dx := 0; dx < 400 && len(probes) < 3; dx++ {
		lat := 41.15 + float64(dx)*0.002
		cand := wireTraj{
			ID:     fmt.Sprintf("probe-%d", dx),
			Points: [][3]float64{{lat, -8.61, 0}, {lat, -8.6, 600}},
		}
		if ownedBy(c.Nodes[0].Router, cand, "shard-1") {
			probes = append(probes, cand)
		}
	}
	if len(probes) < 3 {
		t.Fatal("found fewer than 3 shard-1-owned probe trajectories")
	}
	c.Kill(1)

	status, _, raw := clusterReq(t, http.MethodPost, c.Nodes[0].URL()+"/v1/impute/batch", nil, probes)
	if status != http.StatusOK {
		t.Fatalf("batch with owner dead: status %d: %s", status, raw)
	}
	var batch wireBatchResponse
	if err := json.Unmarshal(raw, &batch); err != nil {
		t.Fatal(err)
	}
	for i, item := range batch.Results {
		if item.Error != nil {
			t.Errorf("item %d errored: %v", i, item.Error)
		}
		if item.Degraded == 0 {
			t.Errorf("item %d not flagged degraded on the linear fallback", i)
		}
	}
	if st := c.Nodes[0].Router.ClusterStats(); st.Degraded != 3 || st.Unavailable != 0 {
		t.Errorf("after a 3-element batch: degraded=%d unavailable=%d, want exactly 3/0", st.Degraded, st.Unavailable)
	}

	// A single on top of the batch moves the counter by exactly one more.
	status, _, raw = clusterReq(t, http.MethodPost, c.Nodes[0].URL()+"/v1/impute", nil, probes[0])
	if status != http.StatusOK {
		t.Fatalf("single with owner dead: status %d: %s", status, raw)
	}
	if st := c.Nodes[0].Router.ClusterStats(); st.Degraded != 4 {
		t.Errorf("after one more single: degraded=%d, want exactly 4", st.Degraded)
	}
}

// BenchmarkClusterFailover measures the replica-failover read path: a single
// imputation through a gateway whose target group's primary is dead, so every
// request walks the group to the live secondary.  The interesting number is
// the latency relative to BenchmarkClusterScatterGather's healthy path.
func BenchmarkClusterFailover(b *testing.B) {
	fx := newReplicaFixture(b, 3, 2)
	group := fx.groupOf(b, fx.sparse[0])
	victim := shardIdx(b, group[0])
	gw := -1
	for i := range fx.c.Nodes {
		if id := fmt.Sprintf("shard-%d", i); id != group[0] && id != group[1] {
			gw = i
		}
	}
	if gw < 0 {
		b.Fatal("no node outside the probe trajectory's replica group")
	}
	fx.c.Kill(victim)
	body, err := json.Marshal(fx.sparse[0])
	if err != nil {
		b.Fatal(err)
	}
	url := fx.c.Nodes[gw].URL() + "/v1/impute"
	// Warm once: the first failover marks the dead primary unhealthy.
	if status, _, raw := clusterReq(b, http.MethodPost, url, nil, fx.sparse[0]); status != http.StatusOK {
		b.Fatalf("warm-up impute: status %d: %s", status, raw)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		status, _, _ := clusterReq(b, http.MethodPost, url, map[string]string{"Content-Type": "application/json"}, json.RawMessage(body))
		if status != http.StatusOK {
			b.Fatalf("status %d", status)
		}
	}
}
