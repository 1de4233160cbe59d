package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"kamel/internal/geo"
	"kamel/internal/obs"
	"kamel/internal/pyramid"
)

// fakeReplicaStore is an in-memory ReplicaStore for syncer tests: a manifest
// document plus recorded installs, which immediately become visible in the
// manifest (as the real store's commit + publish does).
type fakeReplicaStore struct {
	mu        sync.Mutex
	doc       ManifestDoc
	ok        bool
	installed []IncomingModel
}

func (f *fakeReplicaStore) ManifestDoc() (ManifestDoc, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.doc, f.ok
}

func (f *fakeReplicaStore) ModelPayload(file string) ([]byte, error) {
	return []byte("payload:" + file), nil
}

func (f *fakeReplicaStore) InstallModels(models []IncomingModel) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.installed = append(f.installed, models...)
	for _, m := range models {
		found := false
		for i := range f.doc.Models {
			if f.doc.Models[i].Key == m.Key && f.doc.Models[i].Slot == m.Slot {
				f.doc.Models[i].Meta = m.Meta
				found = true
				break
			}
		}
		if !found {
			f.doc.Models = append(f.doc.Models, ReplicaModel{
				Key: m.Key, Slot: m.Slot, File: "local-" + m.Slot, Meta: m.Meta,
			})
		}
	}
	return len(models), nil
}

// TestClusterAntiEntropySweep drives one syncer against a fake peer: models
// whose peer version is strictly newer are pulled with their payloads and
// installed verbatim; equal/older versions and uncommitted (file-less) models
// are not; and a second sweep after convergence transfers nothing.
func TestClusterAntiEntropySweep(t *testing.T) {
	cfg := pyramid.Config{Root: geo.Rect{MinX: 0, MinY: 0, MaxX: 2000, MaxY: 2000}, H: 2, L: 3, K: 100}
	keyA := pyramid.CellKey{Level: 0, IX: 0, IY: 0}
	keyB := pyramid.CellKey{Level: 1, IX: 1, IY: 0}

	peerDoc := ManifestDoc{
		Shard: "shard-1", Generation: 7,
		OriginLat: 41.15, OriginLng: -8.61,
		Config: cfg,
		Models: []ReplicaModel{
			{Key: keyA, Slot: pyramid.SlotSingle, File: "model-a.g000002.bin", Meta: pyramid.ModelMeta{Version: 2, Tokens: 10}},
			{Key: keyB, Slot: pyramid.SlotSingle, File: "model-b.g000003.bin", Meta: pyramid.ModelMeta{Version: 3, Tokens: 20}},
			{Key: keyB, Slot: pyramid.SlotEast, File: "", Meta: pyramid.ModelMeta{Version: 9}}, // uncommitted: unpullable
		},
	}
	var peerMu sync.Mutex
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/cluster/manifest":
			peerMu.Lock()
			doc := peerDoc
			peerMu.Unlock()
			json.NewEncoder(w).Encode(doc)
		case "/v1/cluster/model":
			w.Write([]byte("peer-bytes:" + r.URL.Query().Get("file")))
		default:
			http.NotFound(w, r)
		}
	}))
	defer peer.Close()

	// Two shards at R=2: every cell's replica group contains both nodes, so
	// the responsibility check passes for any model location.
	m := testMap(1, Shard{ID: "shard-0", Addr: "http://h:1"}, Shard{ID: "shard-1", Addr: peer.URL})
	m.Replicas = 2
	rt, err := New(m, Options{Self: "shard-0", Logger: testLogger()})
	if err != nil {
		t.Fatal(err)
	}

	// Local state: A at the same version (not pulled), B stale at v1 (pulled).
	store := &fakeReplicaStore{ok: true, doc: ManifestDoc{
		Shard: "shard-0", Generation: 3,
		OriginLat: 41.15, OriginLng: -8.61,
		Config: cfg,
		Models: []ReplicaModel{
			{Key: keyA, Slot: pyramid.SlotSingle, File: "model-a.g000001.bin", Meta: pyramid.ModelMeta{Version: 2, Tokens: 10}},
			{Key: keyB, Slot: pyramid.SlotSingle, File: "model-b.g000001.bin", Meta: pyramid.ModelMeta{Version: 1, Tokens: 5}},
		},
	}}
	sy := NewSyncer(rt, store, SyncerOptions{Logger: testLogger()})

	st := sy.SweepOnce(context.Background())
	if st.PeersChecked != 1 || st.Errors != 0 {
		t.Fatalf("sweep stats = %+v, want 1 peer checked, 0 errors", st)
	}
	if st.Pulled != 1 || len(store.installed) != 1 {
		t.Fatalf("pulled %d models (installed %d), want exactly the stale one", st.Pulled, len(store.installed))
	}
	got := store.installed[0]
	if got.Key != keyB || got.Slot != pyramid.SlotSingle || got.Meta.Version != 3 {
		t.Fatalf("installed %v/%s v%d, want %v/single v3", got.Key, got.Slot, got.Meta.Version, keyB)
	}
	if string(got.Payload) != "peer-bytes:model-b.g000003.bin" {
		t.Fatalf("payload %q did not come from the peer's model endpoint", got.Payload)
	}

	// Converged: a second sweep is a no-op.
	st2 := sy.SweepOnce(context.Background())
	if st2.Pulled != 0 || len(store.installed) != 1 {
		t.Fatalf("second sweep pulled %d models, want 0 (idempotent convergence)", st2.Pulled)
	}
	stats := sy.Stats()
	if stats.Sweeps != 2 || stats.Pulled != 1 || stats.PullErrors != 0 {
		t.Fatalf("cumulative stats = %+v, want 2 sweeps, 1 pull, 0 errors", stats)
	}

	// A node with no local repository reconciles nothing (it bootstraps via
	// train traffic instead).
	empty := &fakeReplicaStore{ok: false}
	sy2 := NewSyncer(rt, empty, SyncerOptions{Logger: testLogger()})
	if st := sy2.SweepOnce(context.Background()); st.PeersChecked != 0 || st.Pulled != 0 {
		t.Fatalf("empty-node sweep = %+v, want no-op", st)
	}
}

// TestClusterAntiEntropyResponsibility pins the replica-responsibility gate:
// a model whose cell is NOT replicated on this node is never pulled, however
// new its version, so nodes do not hoard models outside their groups.
func TestClusterAntiEntropyResponsibility(t *testing.T) {
	cfg := pyramid.Config{Root: geo.Rect{MinX: 0, MinY: 0, MaxX: 4000, MaxY: 4000}, H: 2, L: 3, K: 100}
	// Enumerate leaf cells and find ones whose replica group (R=1 over three
	// shards) is exactly the peer — those must be skipped — and ones owned by
	// self or peer jointly; with R=1 the joint condition never holds, so
	// nothing at all may be pulled.
	var models []ReplicaModel
	for ix := 0; ix < 4; ix++ {
		for iy := 0; iy < 4; iy++ {
			models = append(models, ReplicaModel{
				Key:  pyramid.CellKey{Level: 2, IX: ix, IY: iy},
				Slot: pyramid.SlotSingle,
				File: "model-x.bin",
				Meta: pyramid.ModelMeta{Version: 99},
			})
		}
	}
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/cluster/manifest":
			json.NewEncoder(w).Encode(ManifestDoc{
				Shard: "shard-1", OriginLat: 41.15, OriginLng: -8.61,
				Config: cfg, Models: models,
			})
		default:
			w.Write([]byte("bytes"))
		}
	}))
	defer peer.Close()

	m := testMap(1,
		Shard{ID: "shard-0", Addr: "http://h:1"},
		Shard{ID: "shard-1", Addr: peer.URL},
		Shard{ID: "shard-2", Addr: "http://h:3"})
	m.Replicas = 1 // no cell is replicated on two nodes
	rt, err := New(m, Options{Self: "shard-0", Logger: testLogger()})
	if err != nil {
		t.Fatal(err)
	}
	store := &fakeReplicaStore{ok: true, doc: ManifestDoc{
		Shard: "shard-0", OriginLat: 41.15, OriginLng: -8.61, Config: cfg,
	}}
	sy := NewSyncer(rt, store, SyncerOptions{Logger: testLogger()})
	st := sy.SweepOnce(context.Background())
	if st.Pulled != 0 || len(store.installed) != 0 {
		t.Fatalf("R=1 sweep pulled %d models, want 0 (no shared replica groups)", st.Pulled)
	}
	if st.ModelsCompared == 0 {
		t.Fatal("sweep compared no models; test is vacuous")
	}
}

// TestClusterAntiEntropyTokenizerMismatch pins the token-space compatibility
// gate: a peer advertising a different tokenizer spec hash is refused
// entirely — none of its models are pulled, however new their versions — and
// the refusal reaches the operator as a warning and a counter, while empty
// hashes (pre-spec nodes) remain compatible for rolling upgrades.
func TestClusterAntiEntropyTokenizerMismatch(t *testing.T) {
	cfg := pyramid.Config{Root: geo.Rect{MinX: 0, MinY: 0, MaxX: 2000, MaxY: 2000}, H: 2, L: 3, K: 100}
	key := pyramid.CellKey{Level: 0, IX: 0, IY: 0}
	peerHash := "feedbead"
	var peerMu sync.Mutex
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/cluster/manifest":
			peerMu.Lock()
			h := peerHash
			peerMu.Unlock()
			json.NewEncoder(w).Encode(ManifestDoc{
				Shard: "shard-1", OriginLat: 41.15, OriginLng: -8.61,
				Config:            cfg,
				TokenizerSpecHash: h,
				Models: []ReplicaModel{{
					Key: key, Slot: pyramid.SlotSingle, File: "model-a.g000009.bin",
					Meta: pyramid.ModelMeta{Version: 9},
				}},
			})
		case "/v1/cluster/model":
			w.Write([]byte("peer-bytes"))
		default:
			http.NotFound(w, r)
		}
	}))
	defer peer.Close()

	m := testMap(1, Shard{ID: "shard-0", Addr: "http://h:1"}, Shard{ID: "shard-1", Addr: peer.URL})
	m.Replicas = 2
	rt, err := New(m, Options{Self: "shard-0", Logger: testLogger()})
	if err != nil {
		t.Fatal(err)
	}
	store := &fakeReplicaStore{ok: true, doc: ManifestDoc{
		Shard: "shard-0", OriginLat: 41.15, OriginLng: -8.61, Config: cfg,
		TokenizerSpecHash: "deadbeef",
	}}
	var logs bytes.Buffer
	reg := obs.NewRegistry()
	sy := NewSyncer(rt, store, SyncerOptions{Logger: slog.New(slog.NewTextHandler(&logs, nil)), Registry: reg})

	st := sy.SweepOnce(context.Background())
	if st.Pulled != 0 || len(store.installed) != 0 {
		t.Fatalf("mismatched-tokenizer sweep pulled %d models, want 0", st.Pulled)
	}
	if st.TokenizerRejects != 1 {
		t.Fatalf("sweep stats = %+v, want exactly 1 tokenizer reject", st)
	}
	if st.ModelsCompared != 0 {
		t.Fatal("refused peer's models were still compared")
	}
	if n := reg.Counter("kamel_antientropy_tokenizer_rejects_total", "").Value(); n != 1 {
		t.Errorf("kamel_antientropy_tokenizer_rejects_total = %d, want 1", n)
	}
	if out := logs.String(); !strings.Contains(out, "mismatched tokenizer spec") || !strings.Contains(out, "peer=shard-1") {
		t.Errorf("refused peer not named in the warning log:\n%s", out)
	}

	// Same hash on both sides: the gate opens and the model is pulled.
	peerMu.Lock()
	peerHash = "deadbeef"
	peerMu.Unlock()
	st = sy.SweepOnce(context.Background())
	if st.TokenizerRejects != 0 || st.Pulled != 1 {
		t.Fatalf("matched-tokenizer sweep = %+v, want 1 pull and no rejects", st)
	}

	// A peer predating specs (empty hash) stays compatible: rolling upgrades
	// must not partition the fleet.
	peerMu.Lock()
	peerHash = ""
	peerMu.Unlock()
	if st := sy.SweepOnce(context.Background()); st.TokenizerRejects != 0 {
		t.Fatalf("empty-hash peer rejected: %+v", st)
	}
}
